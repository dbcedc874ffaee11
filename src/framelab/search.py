"""Exhaustive enumeration and classification of generator subsets.

Subsets stream in lexicographic order, are chopped into fixed-size blocks,
and blocks are mapped (serially or across processes) to per-subset records;
aggregation merges blocks in index order, so reports are identical for any
worker count.  Full mode walks all C(n, m) subsets; reduced mode walks the
C(n-1, m-1) subsets containing the identity.  That is not one representative
per translation class: a class of m-subsets with trivial stabilizer has m
members containing the identity, and all of them are kept and counted.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .diffsets import classify
from .errors import CapacityError, DomainError
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

    def matches_filter(self, job: SearchJob) -> bool:
        if job.target_angles is not None:
            t = tuple(sorted(job.target_angles))
            if len(t) != len(self.angles):
                return False
            if any(abs(a - b) > job.angle_tol for a, b in zip(self.angles, t)):
                return False
        if job.filter_name is None:
            return True
        f = job.filter_name
        if f == "etf":
            return self.is_etf
        if f == "btf":
            return self.is_btf
        return bool(self.flags.get(f.replace("-", "_")))


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


def _cluster_sorted(mags: np.ndarray, tol: float) -> tuple[tuple[float, ...], tuple[int, ...]]:
    order = np.sort(mags)
    reps: list[float] = []
    mults: list[int] = []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or order[i] - order[i - 1] > tol:
            reps.append(float(order[start:i].mean()))
            mults.append(i - start)
            start = i
    return tuple(reps), tuple(mults)


def _classify_block(
    g: GroupSpec, block: list[tuple[Element, ...]], tol: float
) -> list[SubsetRecord]:
    """Angle profile + taxonomy for one block of subsets."""
    T = full_character_table(g)
    zero_idx = g.index(g.zero)
    n, welch_sq = g.order, None
    records = []
    for subset in block:
        m = len(subset)
        cols = [g.index(x) for x in subset]
        sums = T[:, cols].sum(axis=1)
        mags = np.abs(sums) / m
        mags = np.delete(mags, zero_idx)
        angles, mults = _cluster_sorted(mags, tol)
        w = math.sqrt((n - m) / (m * (n - 1)))
        is_etf = len(angles) == 1 and abs(angles[0] - w) <= tol
        tight = abs(sum(t * a * a for a, t in zip(angles, mults)) - (n - m) / m) <= 1e-8
        is_btf = len(angles) == 2 and tight
        flags: dict = {}
        if m >= 2:
            cls = classify(g, subset)
            bw = cls.bidifference_witnesses
            if cls.divisible is not None and bw:  # prefer the subgroup-relative parameters
                bw = tuple(
                    sorted(bw, key=lambda w: w.lam != cls.divisible.lam)
                )
            chain = cls.nested_divisible
            flags = {
                "difference_set": cls.is_difference_set,
                "bidifference": cls.bidifference,
                "proper_bidifference": cls.proper_bidifference,
                "divisible": cls.divisible is not None,
                "relative": cls.relative is not None,
                "partial": cls.partial is not None,
                "gaussian": cls.gaussian is not None,
                "almost": cls.almost is not None,
                "nested_divisible": chain is not None,
                "reversible": cls.reversible,
                "regular": cls.regular,
                "lam": bw[0].lam if bw else cls.difference_set_lambda,
                "mu": bw[0].mu if bw else cls.difference_set_lambda,
                "l": bw[0].l if bw else None,
                "t": chain.t if chain is not None else None,
                "proper_chain": chain.proper if chain is not None else False,
            }
        records.append(SubsetRecord(subset, angles, mults, is_etf, is_btf, flags))
    return records


def _worker(args: tuple) -> list[SubsetRecord]:
    g, block, tol = args
    return _classify_block(g, block, tol)


def enumerate_and_classify(job: SearchJob) -> SearchReport:
    """Classify every subset of the job, filter post hoc, aggregate deterministically."""
    g = job.group
    n = g.order
    if not 1 <= job.m <= n:
        raise DomainError(f"m={job.m} out of range for order {n}")
    if job.mode not in ("full", "reduced"):
        raise DomainError(f"unknown mode {job.mode!r}")
    total = job.subset_count()
    if total > job.cap:
        raise CapacityError(f"{total} subsets exceed cap {job.cap}")

    t0 = time.perf_counter()
    els = g.elements()
    if job.mode == "reduced":
        rest = [x for x in els if x != g.zero]
        stream = ((g.zero,) + c for c in itertools.combinations(rest, job.m - 1))
    else:
        stream = itertools.combinations(els, job.m)

    blocks: list[list[tuple[Element, ...]]] = []
    while True:
        block = list(itertools.islice(stream, BLOCK_SIZE))
        if not block:
            break
        blocks.append(block)

    jobs = max(1, job.jobs)
    if jobs == 1 or len(blocks) <= 1:
        results = [_classify_block(g, b, job.angle_tol) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, [(g, b, job.angle_tol) for b in blocks]))

    class_counts: dict[str, int] = {}
    kept: list[SubsetRecord] = []
    for block_records in results:
        for r in block_records:
            for key in ("difference_set", "bidifference", "divisible", "relative",
                        "partial", "gaussian", "almost", "nested_divisible"):
                if r.flags.get(key):
                    class_counts[key] = class_counts.get(key, 0) + 1
            if r.is_etf:
                class_counts["etf"] = class_counts.get("etf", 0) + 1
            if r.is_btf:
                class_counts["btf"] = class_counts.get("btf", 0) + 1
            if r.matches_filter(job):
                kept.append(r)
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
