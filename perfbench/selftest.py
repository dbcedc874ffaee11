#!/usr/bin/env python3
"""Self-test of the benchmark: every gate must trip on a corrupted output.

    python3 perfbench/selftest.py

Each case feeds a gate one library output that is correct and copies that
are wrong in one detail, and asserts the gate passes the first and flags
every copy.  It also checks that BENCHMARK.json names exactly the metrics
run.py prints, that tracing accounts for all time and restores the
library, and that slicing lines repeated requests up.  Takes about 10 s;
exits 1 on the first failure.
"""

import copy
import dataclasses
import json
import sys

import run  # pins thread counts and locates src/ on import

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from framelab import diffsets  # noqa: E402
from framelab.groups import GroupSpec  # noqa: E402
from framelab.verify import CheckResult  # noqa: E402
from spans import ROOT, Slicer, Tracer  # noqa: E402


def trips(problems, what: str) -> None:
    if not problems:
        raise AssertionError(f"gate did not trip on {what}")


def clean(problems, what: str) -> None:
    if problems:
        raise AssertionError(f"gate rejected correct {what}: {problems[:3]}")


def test_manifest() -> None:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_search_cyclic_gate() -> None:
    w = wl.SearchCyclic(seed=0)
    wl.warm_group_caches(w.GROUPS)
    report = wl.search.enumerate_and_classify(wl.SearchJob(w.GROUPS[0], w.M, jobs=1))
    clean(w.check(report), "search report")

    dropped = copy.copy(report)
    dropped.records = report.records[:-1]
    trips(w.check(dropped), "a missing record")

    counts = copy.copy(report)
    counts.class_counts = {**report.class_counts, "divisible": 41}
    trips(w.check(counts), "a wrong class count")

    flagged = copy.copy(report)
    i = next(i for i, r in enumerate(report.records) if r.flags.get("divisible"))
    flagged.records = list(report.records)
    flagged.records[i] = dataclasses.replace(
        report.records[i], flags={**report.records[i].flags, "difference_set": True})
    trips(w.check(flagged), "a record flagged as a difference set")

    shifted = copy.copy(report)
    shifted.records = [
        dataclasses.replace(r, angles=(r.angles[0] + 1e-6,) + r.angles[1:]) for r in report.records
    ]
    trips(w.check(shifted), "angles off by 1e-6")


def test_match_order16_gate() -> None:
    w = wl.MatchOrder16(seed=0)
    g = GroupSpec((4, 4))
    wl.warm_group_caches([g])
    job = wl.SearchJob(g, w.M, mode="reduced", target_angles=w.target, jobs=1)
    report = wl.search.enumerate_and_classify(job)
    clean(w.check(g.name, report), "match report")
    trips(w.check("Z8xZ2", report), "an unexpected group")

    def corrupt(edit, what):
        bad = copy.copy(report)
        bad.records = list(report.records)
        edit(bad)
        trips(w.check(g.name, bad), what)

    corrupt(lambda r: r.records.pop(), "a missing match")
    corrupt(lambda r: setattr(r, "total_enumerated", 454), "a wrong subset total")

    def reflag(key, value):
        def edit(r):
            r.records[0] = dataclasses.replace(r.records[0], flags={**r.records[0].flags, key: value})
        return edit

    corrupt(reflag("bidifference", True), "a bidifference match")
    corrupt(reflag("nested_divisible", False), "a match that is not a nested chain")
    corrupt(lambda r: r.records.__setitem__(0, dataclasses.replace(
        r.records[0], subset=tuple(x for x in r.records[0].subset if x != g.zero) + ((1, 1),))),
        "a match without 0")


def test_report_mix_gate() -> None:
    w = wl.ReportMix(seed=0)
    factors = (13,)
    subset = tuple((r,) for r in oracle.power_residues(13, 4))
    good = json.loads(w.serve(GroupSpec(factors), subset))
    clean(w.check(factors, subset, json.dumps(good)), "classify report")
    assert any("symbolic" in a for a in good["frame"]["angles"]), "case must carry exact forms"

    def corrupt(edit, what):
        bad = copy.deepcopy(good)
        edit(bad)
        trips(w.check(factors, subset, json.dumps(bad)), what)

    corrupt(lambda r: r["frame"]["angles"][0].update(value=r["frame"]["angles"][0]["value"] + 1e-6),
            "an angle off by 1e-6")
    corrupt(lambda r: r["frame"]["angles"][0].update(multiplicity=r["frame"]["angles"][0]["multiplicity"] + 1),
            "a wrong multiplicity")
    corrupt(lambda r: r["frame"]["angles"][0].update(symbolic="sqrt(5/18 + sqrt(13)/18)"),
            "a wrong exact form")
    corrupt(lambda r: r["frame"]["angles"][0].update(symbolic="__import__('os').getcwd()"),
            "a non-arithmetic exact form")
    corrupt(lambda r: r.update(difference_set={"lam": 1}), "a wrong difference-set flag")
    corrupt(lambda r: r.update(bidifference=not r["bidifference"]), "a wrong bidifference flag")
    corrupt(lambda r: r["frame"].update(is_tight=False), "a non-tight frame")


def test_verify_gate() -> None:
    w = wl.VerifyAll(seed=0)
    ok = [CheckResult(f"suite/check-{i}", True, "") for i in range(w.CHECKS)]
    assert w.check(ok) == (0, [])
    failing = ok[:-1] + [CheckResult("suite/last", False, "boom")]
    assert w.check(failing)[0] == 1
    assert w.check(ok[:-2])[0] == 2, "missing checks must count as failed"


def test_tracer() -> None:
    original = diffsets.classify
    tracer = Tracer()
    tracer.install()
    try:
        assert wl.diffsets.classify is not original, "module binding not wrapped"
        from framelab import search
        assert search.classify is wl.diffsets.classify, "importing namespace not wrapped"
        tracer.timed(wl.ReportMix.serve, GroupSpec((6,)), ((0,), (1,), (3,)))
    finally:
        tracer.uninstall()
    assert diffsets.classify is original and search.classify is original, "not restored"
    assert tracer.calls["diffsets.classify"] == 1
    assert tracer.calls["diffsets.difference_counts"] >= 1
    assert sum(tracer.self_ns.values()) == tracer.total_ns[ROOT], "self times must sum to the root"
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    assert all(p == 0 or p in parents for p in parents.values()), "dangling parent id"


def test_slicer() -> None:
    original = diffsets.classify
    request = (wl.ReportMix.serve, GroupSpec((6,)), ((0,), (1,), (3,)))
    slicer = Slicer(pieces=4)
    slicer.install()
    try:
        slicer.start_pass()
        slicer.timed(*request)
        slicer.calibrate()
        passes = []
        for _ in range(3):
            slicer.start_pass()
            _, dt = slicer.timed(*request)
            passes.append(wl.PassResult([dt], 1, 0, [], slicer.slices))
    finally:
        slicer.uninstall()
    assert diffsets.classify is original, "not restored"
    cuts = {len(p.slices[0]) for p in passes}
    assert len(cuts) == 1 and cuts.pop() > 1, "a repeated request must cut into the same slices"
    for p in passes:
        assert abs(sum(p.slices[0]) - p.latencies[0]) < 1e-6, "slices must add up to the request"
    wall, sliced = run.best_pass(passes)
    assert sliced == 1 and wall <= min(p.latencies[0] for p in passes) + 1e-9, "slicing can only lower"
    passes[1].slices[0] = [passes[1].latencies[0]]
    assert run.best_pass(passes) == (min(p.latencies[0] for p in passes), 0), \
        "a request cut differently on some pass must be compared whole"


def main() -> int:
    tests = [test_manifest, test_search_cyclic_gate, test_match_order16_gate,
             test_report_mix_gate, test_verify_gate, test_tracer, test_slicer]
    for t in tests:
        try:
            t()
        except AssertionError as exc:
            print(f"FAIL {t.__name__}: {exc}")
            return 1
        print(f"ok   {t.__name__}")
    print(f"selftest: {len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
