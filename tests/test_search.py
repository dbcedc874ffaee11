"""Enumeration, filtering, determinism, cross-group matching."""

import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import framelab
from framelab import search
from framelab.diffsets import ROW_FLAGS, translate
from framelab.errors import CapacityError, DomainError
from framelab.groups import GroupSpec, _difference_index_table, parse_group
from framelab.search import (
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
    # cached: the verify suites ask for the same orders on every pass
    assert abelian_groups_of_order(32) is abelian_groups_of_order(32)


def test_subset_counts_by_mode():
    g = parse_group("Z8")
    assert SearchJob(g, 3, mode="full").subset_count() == 56
    assert SearchJob(g, 3, mode="reduced").subset_count() == 21
    rep = enumerate_and_classify(SearchJob(g, 3, mode="reduced"))
    assert rep.total_enumerated == 21
    assert all(r.subset[0] == (0,) for r in rep.records)


def test_capacity_cap(monkeypatch):
    g = GroupSpec((40,))
    monkeypatch.setattr(search, "SUBSET_CAP", 1000)  # read when the search starts
    with pytest.raises(CapacityError):
        enumerate_and_classify(SearchJob(g, 20))
    job = SearchJob(GroupSpec((10,)), 3)  # C(10, 3) = 120 subsets
    monkeypatch.setattr(search, "SUBSET_CAP", 119)
    with pytest.raises(CapacityError, match="120 subsets exceed cap 119"):
        enumerate_and_classify(job)
    monkeypatch.setattr(search, "SUBSET_CAP", 120)
    assert enumerate_and_classify(job).total_enumerated == 120


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
    # C(16, 5) = 4368 subsets: three blocks of at most 2048, so jobs=2 takes the process pool
    g = parse_group("Z16")
    job = SearchJob(g, 5, mode="full")
    assert len(list(search._index_blocks(job))) == 3
    serial = enumerate_and_classify(job).to_dict()
    pooled = enumerate_and_classify(replace(job, jobs=2)).to_dict()
    del serial["runtime_seconds"], pooled["runtime_seconds"]
    assert pooled == serial
    assert serial["total_enumerated"] == 4368


def _report_text(rep) -> tuple[str, str]:
    d = rep.to_dict()
    del d["runtime_seconds"]
    return json.dumps(d, indent=1), "\n".join(map(repr, rep.to_csv_rows()))


def test_block_rule():
    # blocks of (rows, n) entries within BLOCK_ENTRIES, at least MIN_BLOCK_ROWS rows
    assert search._block_rows(21) == 1560  # Z21 m=4 full: 4 blocks per search
    assert search._block_rows(32) == 1024  # Z2^5 m=4 reduced: 4,495 rows in 5 blocks
    assert search._block_rows(64) == 512
    assert search._block_rows(4093) == search.MIN_BLOCK_ROWS
    for n in range(2, 300):
        rows = search._block_rows(n)
        assert rows == search.MIN_BLOCK_ROWS or rows * n <= search.BLOCK_ENTRIES
        assert rows == search.MIN_BLOCK_ROWS or (rows + 1) * n > search.BLOCK_ENTRIES


def test_block_rule_does_not_change_reports(monkeypatch):
    # blocks of 1, of 7 (most searches then end in a short block) and of
    # the rule's own size: reports byte-identical
    block_rows = search._block_rows
    calls = []

    def texts(job):
        out = set()
        for rule in (lambda n: 1, lambda n: 7, block_rows):
            monkeypatch.setattr(search, "_block_rows", lambda n, k=rule: calls.append(n) or k(n))
            out.add(_report_text(enumerate_and_classify(job)))
        assert len(out) == 1, job
        return out.pop()

    jobs = 0
    for n in range(2, 11):
        for g in abelian_groups_of_order(n):
            for m in range(1, n + 1):
                for mode in ("full", "reduced"):
                    texts(SearchJob(g, m, mode=mode))
                    jobs += 1
            m = min(3, n)
            for f in ("btf", "nested-divisible"):
                texts(SearchJob(g, m, filter_name=f))
            angles = enumerate_and_classify(SearchJob(g, m)).records[-1].angles
            text = texts(SearchJob(g, m, mode="reduced", target_angles=angles))
            assert json.loads(text[0])["match_count"] > 0
    assert jobs > 100 and len(calls) > 6 * jobs  # the rule is read on every run


def test_records_own_their_flag_dicts():
    rep = enumerate_and_classify(SearchJob(parse_group("Z12"), 4))
    assert len({r.flags["lam"] for r in rep.records}) > 1
    assert len({id(r.flags) for r in rep.records}) == len(rep.records) == 495
    rep = find_btfs(parse_group("Z2xZ4"), 3)
    assert len({id(r.flags) for r in rep.records}) == len(rep.records) > 1
    # value types of a schema-1 record: bool class flags, int or None parameters
    for r in rep.records:
        for k in ROW_FLAGS + ("btf_without_bidifference",):
            assert type(r.flags[k]) is bool, k
        for k in ("lam", "mu", "l", "t"):
            assert r.flags[k] is None or type(r.flags[k]) is int, k


def test_records_replace_pickle_and_assign():
    r = enumerate_and_classify(SearchJob(parse_group("Z7"), 3, filter_name="difference-set")).records[0]
    assert pickle.loads(pickle.dumps(r)) == r
    s = replace(r, angles=(0.5,))
    assert s != r and s.angles == (0.5,) and s.flags is r.flags
    # mutable and slotted: attributes assign, unknown ones do not exist
    r.is_etf = False
    assert r.is_etf is False and r != s
    with pytest.raises(AttributeError):
        r.extra = 1
    with pytest.raises(TypeError):
        hash(r)


def test_pool_bounds_blocks_in_flight():
    # 12 blocks of 10 rows through 2 workers: at most 2 * jobs blocks are
    # cut ahead of the merge, and results come back in block order
    job = SearchJob(parse_group("Z10"), 3)
    blocks = np.array_split(np.array(list(itertools.combinations(range(10), 3))), 12)
    cut = 0

    def counted():
        nonlocal cut
        for b in blocks:
            cut += 1
            yield b

    ahead = []
    pooled = []
    for result in search._map_blocks(job, counted(), 2):
        pooled.append(result)
        ahead.append(cut - len(pooled))
    assert cut == len(pooled) == 12
    assert max(ahead) == 4
    serial = list(search._map_blocks(job, iter(blocks), 1))
    assert [r for r, _ in pooled] == [r for r, _ in serial]
    assert all((a == b).all() for (_, a), (_, b) in zip(pooled, serial))


def test_pool_with_more_blocks_than_in_flight_matches_serial(monkeypatch):
    monkeypatch.setattr(search, "_block_rows", lambda n: 16)  # C(10, 3) = 120: 8 blocks
    job = SearchJob(parse_group("Z10"), 3)
    assert len(list(search._index_blocks(job))) == 8
    serial = _report_text(enumerate_and_classify(job))
    assert _report_text(enumerate_and_classify(replace(job, jobs=2))) == serial


@pytest.mark.parametrize("name, m", [("Z64", 3), ("Z21", 4)])
def test_block_memory_is_bounded_by_the_chunk(name, m):
    # a full block whose target matches nothing: the peak is one block's
    # temporaries, about 1.8 MB; a 2**16-entry bound reads 3.5-3.6 MB
    job = SearchJob(parse_group(name), m, target_angles=(2.0,))
    block = next(search._index_blocks(job))
    assert block.shape == (search._block_rows(job.group.order), m)
    search._classify_block(job, block)  # character table, lattice and tables cached
    tracemalloc.start()
    try:
        kept, counts = search._classify_block(job, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == [] and counts.any()
    assert peak < 3 * 2**20, peak


def test_index_blocks_match_combinations(monkeypatch):
    # block by block against itertools.combinations, for block sizes 1, 7,
    # one that divides the subset count, and the default
    g = parse_group("Z2xZ5")
    for m in (1, 2, 3, 9, 10):
        for mode in ("full", "reduced"):
            job = SearchJob(g, m, mode=mode)
            if mode == "full":
                want = list(itertools.combinations(range(10), m))
            else:
                want = [(0,) + c for c in itertools.combinations(range(1, 10), m - 1)]
            total = len(want)
            assert total == job.subset_count()
            divisor = max((d for d in range(1, total) if total % d == 0), default=1)
            for size in (1, 7, divisor, search._block_rows(10)):
                monkeypatch.setattr(search, "_block_rows", lambda n, k=size: k)
                blocks = list(search._index_blocks(job))
                assert len(blocks) == -(-total // size), (m, mode, size)
                for i, b in enumerate(blocks):
                    rows = want[i * size : (i + 1) * size]
                    assert b.dtype == np.intp and b.shape == (len(rows), m)
                    assert list(map(tuple, b.tolist())) == rows, (m, mode, size, i)


@pytest.mark.parametrize("name", ["differnce-set", "lam", "t", "btf_without_bidifference", ""])
def test_unknown_filter_is_rejected(name):
    with pytest.raises(DomainError, match="unknown filter"):
        enumerate_and_classify(SearchJob(parse_group("Z7"), 3, filter_name=name))


@pytest.mark.parametrize("jobs", [0, -5])
@pytest.mark.parametrize("n", [7, 21])  # one block, and more than one
def test_worker_count_below_one_is_rejected_before_any_work(monkeypatch, jobs, n):
    classified = []
    monkeypatch.setattr(search, "_classify_block", lambda job, block: classified.append(block))
    with pytest.raises(DomainError, match=f"jobs must be at least 1, got {jobs}"):
        enumerate_and_classify(SearchJob(GroupSpec((n,)), 4, jobs=jobs))
    assert classified == []


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_angle_tolerance_must_be_finite_and_positive(tol):
    # a negative tolerance cut at every gap and counted no ETF in Z7
    with pytest.raises(DomainError, match="angle tolerance must be finite and positive"):
        enumerate_and_classify(SearchJob(parse_group("Z7"), 3, angle_tol=tol))


@pytest.mark.parametrize("target", [(math.nan,), (0.5, math.inf), (-math.inf,)])
def test_target_angles_must_be_finite(target):
    with pytest.raises(DomainError, match="target angles must be finite"):
        enumerate_and_classify(SearchJob(parse_group("Z7"), 3, target_angles=target))


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


def test_search_leaves_numpy_random_and_ma_unimported():
    # the count-row keys use fixed weights, not a random generator: numpy.random
    # and numpy.ma each add resident memory to every search process
    code = (
        "import sys\n"
        "from framelab.groups import GroupSpec\n"
        "from framelab.search import SearchJob, enumerate_and_classify\n"
        "enumerate_and_classify(SearchJob(GroupSpec((21,)), 4))\n"
        "enumerate_and_classify(SearchJob(GroupSpec((2, 2, 2, 2)), 4, mode='reduced'))\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random'\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(framelab.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_serial_search_and_rational_reports_leave_mpmath_and_pools_unimported():
    # mpmath loads on the first PSLQ call and the process pool only for
    # jobs > 1; Z7 {1, 2, 4} has the angle sqrt(2)/3, whose square 2/9 is
    # rational, and Z5 {0, 1} has two angles, whose forms come from the
    # moments, so neither report needs PSLQ.  Z9 {0, 1, 3, 4} has four
    # angles, so its report runs the search.
    code = (
        "import sys\n"
        "import framelab\n"
        "from framelab import classify, frame_report, FrameSpec, GroupSpec\n"
        "from framelab.search import SearchJob, enumerate_and_classify\n"
        "unwanted = ('mpmath', 'multiprocessing', 'concurrent.futures.process')\n"
        "enumerate_and_classify(SearchJob(GroupSpec((21,)), 4, jobs=1))\n"
        "g, S = GroupSpec((7,)), ((1,), (2,), (4,))\n"
        "classify(g, S)\n"
        "angles = frame_report(FrameSpec(g, S))['angles']\n"
        "assert [a['symbolic'] for a in angles] == ['sqrt(2)/3'], angles\n"
        "assert not [m for m in unwanted if m in sys.modules], sys.modules.keys()\n"
        "angles = frame_report(FrameSpec(GroupSpec((5,)), ((0,), (1,))))['angles']\n"
        "assert [a['symbolic'] for a in angles] == "
        "['sqrt(3/8 - sqrt(5)/8)', 'sqrt(3/8 + sqrt(5)/8)'], angles\n"
        "assert 'mpmath' not in sys.modules\n"
        "angles = frame_report(FrameSpec(GroupSpec((9,)), ((0,), (1,), (3,), (4,))))['angles']\n"
        "assert [a.get('symbolic') for a in angles] == [None, None, None, '1/2'], angles\n"
        "assert 'mpmath' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(framelab.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_search_above_the_character_table_cap_builds_nothing():
    # refused before the first block gathers from a 4000 x 4000 difference
    # table, which would peak at 30.7 MB and stay cached
    _difference_index_table.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="1024"):
            enumerate_and_classify(SearchJob(GroupSpec((4000,)), 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert _difference_index_table.cache_info().currsize == 0
