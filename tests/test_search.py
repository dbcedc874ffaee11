"""Enumeration, filtering, determinism, cross-group matching."""

import math
from dataclasses import replace

import pytest

from framelab.diffsets import translate
from framelab.errors import CapacityError, DomainError
from framelab.groups import GroupSpec, parse_group
from framelab.search import (
    BLOCK_SIZE,
    SearchJob,
    abelian_groups_of_order,
    cross_group_angle_match,
    enumerate_and_classify,
    find_btfs,
)

TARGET_833 = (1 / 3, math.sqrt(5) / 3)


def test_abelian_groups_of_order():
    assert [g.name for g in abelian_groups_of_order(8)] == ["Z2xZ2xZ2", "Z2xZ4", "Z8"]
    assert [g.name for g in abelian_groups_of_order(7)] == ["Z7"]
    assert [g.name for g in abelian_groups_of_order(12)] == ["Z2xZ2xZ3", "Z3xZ4"]
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(36)) == 4
    with pytest.raises(DomainError):
        abelian_groups_of_order(1)


def test_subset_counts_by_mode():
    g = parse_group("Z8")
    assert SearchJob(g, 3, mode="full").subset_count() == 56
    assert SearchJob(g, 3, mode="reduced").subset_count() == 21
    rep = enumerate_and_classify(SearchJob(g, 3, mode="reduced"))
    assert rep.total_enumerated == 21
    assert all(r.subset[0] == (0,) for r in rep.records)


def test_capacity_cap():
    g = GroupSpec((40,))
    with pytest.raises(CapacityError):
        enumerate_and_classify(SearchJob(g, 20, cap=1000))


def test_order8_match_counts():
    rep = cross_group_angle_match(8, 3, TARGET_833)
    by_name = {grp["group"]: grp for grp in rep["groups"]}
    assert by_name["Z2xZ2xZ2"]["match_count"] == 0
    assert by_name["Z2xZ4"]["match_count"] == 32
    assert by_name["Z8"]["match_count"] == 16
    for grp in rep["groups"]:
        assert grp["bidifference_matches"] == 0
        assert grp["proper_chain_matches"] == grp["match_count"]


def test_matches_closed_under_translation():
    g = parse_group("Z8")
    rep = enumerate_and_classify(SearchJob(g, 3, target_angles=TARGET_833))
    matched = {frozenset(r.subset) for r in rep.records}
    for sub in matched:
        for c in g.elements():
            assert frozenset(translate(g, tuple(sub), c)) in matched


def test_determinism_across_worker_counts():
    g = parse_group("Z2xZ4")
    rep1 = enumerate_and_classify(SearchJob(g, 3, target_angles=TARGET_833, jobs=1))
    rep2 = enumerate_and_classify(SearchJob(g, 3, target_angles=TARGET_833, jobs=3))
    assert [r.subset for r in rep1.records] == [r.subset for r in rep2.records]
    assert rep1.class_counts == rep2.class_counts


def test_process_pool_matches_serial():
    # C(16, 5) = 4368 subsets: two blocks, so jobs=2 takes the process pool
    g = parse_group("Z16")
    job = SearchJob(g, 5, mode="full")
    assert job.subset_count() > BLOCK_SIZE
    serial = enumerate_and_classify(job).to_dict()
    pooled = enumerate_and_classify(replace(job, jobs=2)).to_dict()
    del serial["runtime_seconds"], pooled["runtime_seconds"]
    assert pooled == serial
    assert serial["total_enumerated"] == 4368


@pytest.mark.parametrize("name", ["differnce-set", "lam", "t", "btf_without_bidifference", ""])
def test_unknown_filter_is_rejected(name):
    with pytest.raises(DomainError, match="unknown filter"):
        enumerate_and_classify(SearchJob(parse_group("Z7"), 3, filter_name=name))


@pytest.mark.parametrize("name", ["etf", "btf", "difference-set", "difference_set",
                                  "proper-bidifference", "nested-divisible", "regular"])
def test_known_filters_are_accepted(name):
    enumerate_and_classify(SearchJob(parse_group("Z7"), 3, filter_name=name))


def test_find_btfs_z6_includes_dds():
    g = parse_group("Z6")
    rep = find_btfs(g, 3)
    subsets = {r.subset for r in rep.records}
    assert ((0,), (1,), (3,)) in subsets
    for r in rep.records:
        assert r.is_btf


def test_find_btfs_flags_headline_case():
    g = parse_group("Z2xZ4")
    rep = find_btfs(g, 3)
    flagged = [r for r in rep.records if r.flags.get("btf_without_bidifference")]
    assert ((0, 0), (0, 1), (1, 0)) in {r.subset for r in flagged}


def test_z7_etf_iff_difference_set():
    g = parse_group("Z7")
    rep = enumerate_and_classify(SearchJob(g, 3))
    # 14 difference sets of size 3 mod translation and reversal structure
    etf = [r for r in rep.records if r.is_etf]
    ds = [r for r in rep.records if r.flags.get("difference_set")]
    assert len(etf) == len(ds) == 14
    assert {r.subset for r in etf} == {r.subset for r in ds}
    # the one-angle records are exactly the Welch-equality frames
    w = math.sqrt(2) / 3
    for r in etf:
        assert r.angles == (pytest.approx(w),)


def test_cross_group_golden_counts():
    rep = cross_group_angle_match(7, 3, (math.sqrt(2) / 3,))
    assert rep["groups"][0]["match_count"] == 14
    # a single zero angle needs the full character table
    rep0 = cross_group_angle_match(4, 4, (0.0,))
    assert all(grp["match_count"] == 1 for grp in rep0["groups"])
    rep2 = cross_group_angle_match(4, 2, (0.0,))
    assert all(grp["match_count"] == 0 for grp in rep2["groups"])


def test_report_roundtrip_and_csv():
    import json

    g = parse_group("Z6")
    rep = enumerate_and_classify(SearchJob(g, 3, filter_name="btf"))
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    rows = rep.to_csv_rows()
    assert rows[0][0] == "group"
    assert len(rows) == len(rep.records) + 1
    header = rows[0]
    for col in ("lam", "mu", "l", "t", "angles"):
        assert col in header


def test_framelab_jobs_env(monkeypatch):
    from framelab.search import default_jobs

    monkeypatch.setenv("FRAMELAB_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("FRAMELAB_JOBS", "junk")
    assert default_jobs() == 1
    monkeypatch.delenv("FRAMELAB_JOBS")
    assert default_jobs() == 1


def test_found_btfs_satisfy_multiplicity_identity():
    from framelab.frames import btf_multiplicities_from_angles

    for name in ("Z6", "Z8", "Z2xZ4", "Z10"):
        g = parse_group(name)
        for r in find_btfs(g, 3).records:
            derived = btf_multiplicities_from_angles(g.order, 3, *r.angles)
            assert derived == r.multiplicities


def test_etf_iff_difference_set_to_order_12():
    from framelab.verify import suite_etf_difference

    results = suite_etf_difference(max_order=12)
    assert all(r.passed for r in results), results
