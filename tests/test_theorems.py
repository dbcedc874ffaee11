"""The paper's theorems, exhaustively: divisible, partial or Gauss-summing
sets generate BTFs or ETFs, and a nested divisible chain's shells are the
frame's angles.

One unfiltered search per (group, m) covers every subset of size 2..n-2 of
every abelian group of order 3..12, and of Z13: 21,222 subsets.  For each
row the search flags divisible, relative, partial, Gaussian or nested
divisible, classify gives the class parameters, the predictor gives angles
and multiplicities, and the search record gives the measured ones.
"""

import math
from collections import Counter

from framelab.diffsets import classify
from framelab.groups import GroupSpec
from framelab.predictions import (
    dds_angles,
    gaussian_angles,
    ndds_angles,
    pds_angles,
    rds_angles,
)
from framelab.search import SearchJob, abelian_groups_of_order, enumerate_and_classify

GROUPS = tuple(g for n in range(3, 13) for g in abelian_groups_of_order(n)) + (GroupSpec((13,)),)
FLAGS = {
    "divisible": "dds", "relative": "rds", "partial": "pds", "gaussian": "gaussian",
    "nested_divisible": "ndds",
}
COVERAGE = {"dds": 1742, "rds": 196, "pds": 342, "gaussian": 456, "ndds": 3086}
TOL = 1e-9


def _close(xs, ys) -> bool:
    return len(xs) == len(ys) and all(abs(x - y) <= TOL for x, y in zip(xs, ys))


def _predicts(pred, rec) -> bool:
    """One angle and an ETF, or the measured pair with the derived multiplicities."""
    return (
        pred.is_etf == rec.is_etf
        and _close(pred.angles, rec.angles)
        and pred.derived_multiplicities == rec.multiplicities
    )


def _shells_predict(res, rec) -> bool:
    """Every shell is a measured angle with its multiplicity; biangular iff d = 2."""
    return (
        _close([math.sqrt(sq) for sq, _ in res.shell_values], rec.angles)
        and tuple(c for _, c in res.shell_values) == rec.multiplicities
        and res.biangular == (len(rec.angles) == 2)
        and all(any(abs(a - b) <= TOL for b in rec.angles) for a in res.prediction.angles)
    )


def _check(g, m, rec, cls, family) -> bool:
    n = g.order
    if family == "dds":
        d = cls.divisible
        return _predicts(dds_angles(n, m, d.l, d.lam, d.mu), rec)
    if family == "rds":
        r = cls.relative
        return _predicts(rds_angles(n, m, r.l, r.mu), rec)
    if family == "pds":
        p = cls.partial
        return _predicts(pds_angles(n, m, p.lam, p.mu, p.zero_in_s), rec)
    if family == "gaussian":
        q = cls.gaussian
        return _predicts(gaussian_angles(q.p, m, q.lam, q.mu), rec)
    return _shells_predict(ndds_angles(cls.nested_divisible), rec)


def test_every_flagged_subset_of_the_small_groups_gets_its_predicted_frame():
    checked: Counter = Counter()
    failed = []
    subsets = 0
    for g in GROUPS:
        for m in range(2, g.order - 1):
            report = enumerate_and_classify(SearchJob(g, m))
            subsets += report.total_enumerated
            for rec in report.records:
                families = [f for flag, f in FLAGS.items() if rec.flags[flag]]
                cls = classify(g, rec.subset) if families else None
                for family in families:
                    checked[family] += 1
                    if not _check(g, m, rec, cls, family):
                        failed.append((family, g.name, rec.subset, rec.angles))
    assert not failed, f"{len(failed)} mismatches, first {failed[:3]}"
    assert subsets == 21222
    assert checked == COVERAGE
