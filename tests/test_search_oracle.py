"""Differential test: the array-batched search vs the per-subset search it replaced.

The oracle below is the old block classifier kept in logic: per subset, a
character-table sum, a clustering loop taking each cluster's mean, the
ETF/BTF decision, scalar classify and the flag dict; then the old filter and
class counting.  Reports must agree field for field (runtime aside) and
row for row in CSV.
"""

import itertools
import math

import numpy as np
import pytest

from framelab.diffsets import classify
from framelab.groups import GroupSpec, full_character_table
from framelab.search import (
    SearchJob,
    SearchReport,
    SubsetRecord,
    abelian_groups_of_order,
    enumerate_and_classify,
)

ORDER16_TARGET = (0.0, math.sqrt(2) / 2, 1.0)
FILTERS = (None, "etf", "btf", "difference-set", "bidifference", "proper_bidifference",
           "divisible", "relative", "partial", "gaussian", "almost", "nested-divisible",
           "reversible", "regular", "proper_chain")


def oracle_cluster_sorted(mags, tol):
    order = np.sort(mags)
    reps, mults = [], []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or order[i] - order[i - 1] > tol:
            reps.append(float(order[start:i].mean()))
            mults.append(i - start)
            start = i
    return tuple(reps), tuple(mults)


def oracle_record(g, subset, tol):
    T = full_character_table(g)
    n, m = g.order, len(subset)
    cols = [g.index(x) for x in subset]
    mags = np.delete(np.abs(T[:, cols].sum(axis=1)) / m, g.index(g.zero))
    angles, mults = oracle_cluster_sorted(mags, tol)
    w = math.sqrt((n - m) / (m * (n - 1)))
    is_etf = len(angles) == 1 and abs(angles[0] - w) <= tol
    tight = abs(sum(t * a * a for a, t in zip(angles, mults)) - (n - m) / m) <= 1e-8
    is_btf = len(angles) == 2 and tight
    flags = {}
    if m >= 2:
        cls = classify(g, subset)
        bw = cls.bidifference_witnesses
        if cls.divisible is not None and bw:  # prefer the subgroup-relative parameters
            bw = tuple(sorted(bw, key=lambda w: w.lam != cls.divisible.lam))
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
    return SubsetRecord(subset, angles, mults, is_etf, is_btf, flags)


def oracle_matches(r, job):
    if job.target_angles is not None:
        t = tuple(sorted(job.target_angles))
        if len(t) != len(r.angles):
            return False
        if any(abs(a - b) > job.angle_tol for a, b in zip(r.angles, t)):
            return False
    if job.filter_name is None:
        return True
    f = job.filter_name
    if f == "etf":
        return r.is_etf
    if f == "btf":
        return r.is_btf
    return bool(r.flags.get(f.replace("-", "_")))


def oracle_records(job):
    g = job.group
    if job.mode == "reduced":
        rest = [x for x in g.elements() if x != g.zero]
        subsets = ((g.zero,) + c for c in itertools.combinations(rest, job.m - 1))
    else:
        subsets = itertools.combinations(g.elements(), job.m)
    return [oracle_record(g, s, job.angle_tol) for s in subsets]


def oracle_report(job, records):
    counts = {}
    kept = []
    for r in records:
        for key in ("difference_set", "bidifference", "divisible", "relative",
                    "partial", "gaussian", "almost", "nested_divisible"):
            if r.flags.get(key):
                counts[key] = counts.get(key, 0) + 1
        if r.is_etf:
            counts["etf"] = counts.get("etf", 0) + 1
        if r.is_btf:
            counts["btf"] = counts.get("btf", 0) + 1
        if oracle_matches(r, job):
            kept.append(r)
    return SearchReport(job, kept, len(records), counts)


def assert_same_report(job, records):
    got = enumerate_and_classify(job)
    want = oracle_report(job, records)
    a, b = got.to_dict(), want.to_dict()
    del a["runtime_seconds"], b["runtime_seconds"]
    assert a == b, job
    assert got.to_csv_rows() == want.to_csv_rows(), job
    return got


def test_every_small_job_matches_oracle():
    chains = jobs = 0
    for n in range(2, 11):
        for g in abelian_groups_of_order(n):
            for m in range(1, n + 1):
                for mode in ("full", "reduced"):
                    base = SearchJob(g, m, mode=mode)
                    records = oracle_records(base)
                    rep = assert_same_report(base, records)
                    chains += sum(1 for r in rep.records if (r.flags.get("t") or 0) >= 3)
                    jobs += 1
                    if n <= 8 and m in (3, 4) and mode == "full":
                        for f in FILTERS[1:]:
                            assert_same_report(SearchJob(g, m, filter_name=f), records)
                            jobs += 1
                        angles = sorted({r.angles for r in records}, key=len)[-1]
                        assert_same_report(SearchJob(g, m, target_angles=angles[::-1]), records)
    assert chains > 0  # the breadth-first chain pass ran, not just the fast paths
    assert jobs > 300


@pytest.mark.parametrize(
    "factors,m,mode,target,filter_name",
    [
        ((21,), 4, "full", None, None),
        ((2, 2, 2, 2), 4, "reduced", ORDER16_TARGET, None),
        ((2, 2, 4), 4, "reduced", ORDER16_TARGET, None),
        ((2, 8), 4, "reduced", ORDER16_TARGET, None),
        ((4, 4), 4, "reduced", ORDER16_TARGET, None),
        ((16,), 4, "reduced", ORDER16_TARGET, None),
        ((13,), 7, "reduced", None, "partial"),
        ((13,), 6, "full", None, "gaussian"),
    ],
)
def test_benchmark_and_filter_jobs_match_oracle(factors, m, mode, target, filter_name):
    job = SearchJob(GroupSpec(factors), m, mode=mode, target_angles=target,
                    filter_name=filter_name)
    rep = assert_same_report(job, oracle_records(job))
    if filter_name is not None:
        assert rep.records  # the filter keeps something, so the comparison bites
