"""The three benchmark workloads: seeded inputs, one timed pass, correctness gate.

Every workload is single-process and closed-loop: the next library call
starts when the previous one returns, and every search passes ``jobs=1``.
A pass is the workload's unit of repetition; a request is one timed call
into the library, the latency a user waits for.  Every pass of a run makes
the same requests in the same order, so run.py can compare them across
passes.  References come from ``oracle`` and are computed outside the
timed region.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import oracle
# library functions are looked up on their modules at call time, so the tracer's
# wrappers (installed on those modules) see the benchmark's own calls too
from framelab import diffsets, frames, groups, search, verify
from framelab.frames import FrameSpec
from framelab.groups import GroupSpec
from framelab.search import SearchJob

# timed(fn, *args) -> (result, seconds); the tracer substitutes a traced version
Timer = Callable[..., tuple[Any, float]]


def time_call(fn: Callable, *args) -> tuple[Any, float]:
    """(result, seconds) of one untraced call."""
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, (time.perf_counter_ns() - t0) / 1e9


@dataclass
class PassResult:
    latencies: list[float]  # seconds per request
    ops: int
    failed: int
    problems: list[str]
    slices: list[list[float]] = field(default_factory=list)  # seconds per slice, per request

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def warm_group_caches(gs) -> None:
    """Fill the library's per-group caches the workload relies on."""
    for g in gs:
        groups.all_subgroups(g)
        groups.full_character_table(g)


# ---------------------------------------------------------------------------


class SearchCyclic:
    """enumerate_and_classify(SearchJob(Z21, m=4)), full mode, unfiltered."""

    name = "search-cyclic"
    GROUPS = (GroupSpec((21,)),)
    M = 4
    SUBSETS = math.comb(21, M)
    SPOT_CHECKS = 32

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ref_counts = oracle.search_class_counts_z21(self.M)

    def inputs(self) -> list:
        return [{"call": "enumerate_and_classify", "group": "Z21", "m": self.M, "mode": "full"}]

    def run_pass(self, index: int, timed: Timer) -> PassResult:
        report, dt = timed(search.enumerate_and_classify, SearchJob(self.GROUPS[0], self.M, jobs=1))
        problems = self.check(report)
        return PassResult([dt], self.SUBSETS, self.SUBSETS if problems else 0, problems)

    def check(self, report) -> list[str]:
        out = []
        if report.total_enumerated != self.SUBSETS:
            out.append(f"total_enumerated {report.total_enumerated} != {self.SUBSETS}")
        if len(report.records) != self.SUBSETS:
            out.append(f"{len(report.records)} records kept, expected {self.SUBSETS}")
        if dict(report.class_counts) != self.ref_counts:
            out.append(f"class_counts {report.class_counts} != {self.ref_counts}")
        # 4 * 3 = 12 differences cannot cover the 20 nonzero elements evenly
        found = [r.subset for r in report.records if r.flags.get("difference_set")]
        if found:
            out.append(f"{len(found)} records flagged as difference sets, e.g. {found[0]}; Z21 has none of size 4")
        picks = self.rng.sample(range(len(report.records)), min(self.SPOT_CHECKS, len(report.records)))
        for i in picks:
            r = report.records[i]
            out.extend(angle_problems(f"record {r.subset}", r.angles, r.multiplicities,
                                      *oracle.gram_angles((21,), r.subset)))
        return out


def angle_problems(label: str, angles, mults, ref_angles, ref_mults) -> list[str]:
    """Reported angles and multiplicities against the Gram oracle's."""
    if list(mults) != ref_mults or len(angles) != len(ref_angles) or any(
        abs(a - b) > oracle.VALUE_TOL for a, b in zip(angles, ref_angles)
    ):
        return [f"{label}: angles {list(angles)} x {list(mults)} != oracle {ref_angles} x {ref_mults}"]
    return []


def _cyclic(n: int, xs) -> tuple:
    return (n,), tuple((x,) for x in xs)


class MatchOrder16:
    """The order-16 angle match (0, sqrt(2)/2, 1) over the five groups of order 16.

    One reduced-mode search per group: the 4-subsets that contain 0, which
    is every match up to translation.  The matches of a group are closed
    under translation, so a quarter of them contain 0.
    """

    name = "match-order16"
    FACTORS = ((2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,))
    GROUPS = tuple(GroupSpec(f) for f in FACTORS)
    M = 4
    TARGET = (0.0, math.sqrt(2) / 2, 1.0)
    # the paper's order-16 phenomenon: every match is a nested chain, none bidifference;
    # over all subsets the counts are 0, 96, 32, 48 and 8
    EXPECTED = {"Z2xZ2xZ2xZ2": 0, "Z2xZ2xZ4": 24, "Z2xZ8": 8, "Z4xZ4": 12, "Z16": 2}

    def __init__(self, seed: int):
        # the library sorts the target itself; the seed only permutes how it is passed
        target = list(self.TARGET)
        random.Random(seed).shuffle(target)
        self.target = tuple(target)
        self.ref = {}
        for f in self.FACTORS:
            total, matches, bidiff = oracle.angle_match_counts(f, self.M, self.TARGET, containing_zero=True)
            if matches != self.EXPECTED[oracle.group_name(f)] or bidiff != 0:
                raise AssertionError(f"oracle disagrees with the expected counts for {f}")
            self.ref[oracle.group_name(f)] = (total, matches)
        self.subsets = sum(total for total, _ in self.ref.values())

    def inputs(self) -> list:
        return [{"call": "enumerate_and_classify", "group": oracle.group_name(f), "m": self.M,
                 "mode": "reduced", "target_angles": list(self.target)} for f in self.FACTORS]

    def run_pass(self, index: int, timed: Timer) -> PassResult:
        latencies, failed, problems = [], 0, []
        for g in self.GROUPS:
            job = SearchJob(g, self.M, mode="reduced", target_angles=self.target, angle_tol=1e-7, jobs=1)
            report, dt = timed(search.enumerate_and_classify, job)
            latencies.append(dt)
            bad = self.check(g.name, report)
            failed += report.total_enumerated if bad else 0
            problems.extend(bad)
        return PassResult(latencies, self.subsets, failed, problems)

    def check(self, name: str, report) -> list[str]:
        if name not in self.ref:
            return [f"unexpected group {name}"]
        total, matches = self.ref[name]
        recs = report.records
        out = []
        if report.total_enumerated != total:
            out.append(f"{name}: {report.total_enumerated} subsets, expected {total}")
        if len(recs) != matches:
            out.append(f"{name}: {len(recs)} matches, expected {matches}")
        if any(r.subset[0] != report.job.group.zero for r in recs):
            out.append(f"{name}: a match without 0 in a reduced search")
        bidiff = sum(1 for r in recs if r.flags.get("bidifference"))
        if bidiff:
            out.append(f"{name}: {bidiff} bidifference matches, expected 0")
        nested = sum(1 for r in recs if r.flags.get("nested_divisible"))
        if nested != len(recs):
            out.append(f"{name}: {nested} of {len(recs)} matches are nested chains, expected all")
        return out


class Search:
    """The two searches in one pass: the Z21 search, then the order-16 match.

    They run as one workload so that a run can be long enough for a steady
    `wall_s`; each keeps its own requests, inputs and gate.
    """

    name = "search"
    PARTS = (SearchCyclic, MatchOrder16)
    GROUPS = SearchCyclic.GROUPS + MatchOrder16.GROUPS

    def __init__(self, seed: int):
        self.parts = [part(seed) for part in self.PARTS]

    def inputs(self) -> list:
        return [x for part in self.parts for x in part.inputs()]

    def run_pass(self, index: int, timed: Timer) -> PassResult:
        rs = [part.run_pass(index, timed) for part in self.parts]
        return PassResult(
            [x for r in rs for x in r.latencies], sum(r.ops for r in rs),
            sum(r.failed for r in rs), [msg for r in rs for msg in r.problems],
        )


class ReportMix:
    """A seeded round of `framelab classify` requests served in-process.

    The round serves the structured catalogue once plus one random subset of
    every roster group, in a seeded order; the seed draws the random subsets
    and the order, and every pass serves the same round, so each request's
    time can be compared across passes.  The random subsets are images of
    fixed ones, so a round carries the same work whatever the seed.
    """

    name = "report-mix"
    # Z64 {0,1,5,11,20,33,40} is left out: at ~4 s it would be twice the rest
    # of a round, and a round must be short enough to repeat ten times in a run
    STRUCTURED = (
        _cyclic(6, (0, 1, 3)), _cyclic(9, (0, 1, 3, 4)), ((2, 4), ((0, 0), (1, 0), (0, 1))),
        *[_cyclic(p, oracle.power_residues(p, 2)) for p in (7, 11, 13, 17, 29, 37)],
        _cyclic(13, oracle.power_residues(13, 4)),
        _cyclic(29, [0] + oracle.power_residues(29, 4)),
        _cyclic(37, [0] + oracle.power_residues(37, 4)),
    )
    # Random requests: a seeded affine image x -> u*x + t (u a unit) of a fixed
    # generic subset of each roster group.  An affine map permutes the
    # characters, so every image has the same angles, none of them a surd the
    # recognizer knows, and costs the same; uniform draws of the same size
    # differ by up to 2x in PSLQ time, which would make the round depend on the seed.
    ROSTER = ((11, (0, 1, 3)), (13, (0, 1, 2, 4, 7)))
    GROUPS = tuple(GroupSpec(f) for f in sorted({f for f, _ in STRUCTURED} | {(n,) for n, _ in ROSTER}))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        reqs = list(self.STRUCTURED)
        for n, base in self.ROSTER:
            u = rng.choice([x for x in range(1, n) if math.gcd(x, n) == 1])
            t = rng.randrange(n)
            reqs.append(((n,), tuple(sorted(((u * x + t) % n,) for x in base))))
        rng.shuffle(reqs)
        self.requests: list[tuple] = reqs
        self.refs: dict[tuple, dict] = {}

    def inputs(self) -> list:
        return [
            [oracle.group_name(f), [x[0] if len(f) == 1 else list(x) for x in S]]
            for f, S in self.requests
        ]

    def reference(self, factors, subset) -> dict:
        key = (factors, subset)
        if key not in self.refs:
            angles, mults = oracle.gram_angles(factors, subset)
            levels = oracle.difference_levels(factors, subset)
            n, m = math.prod(factors), len(subset)
            self.refs[key] = {
                "angles": angles, "mults": mults,
                "lam": next(iter(levels)) if len(levels) == 1 else None,
                "bidifference": len(levels) <= 2,
                "is_etf": len(angles) == 1 and abs(angles[0] - oracle.welch(n, m)) <= oracle.ANGLE_TOL,
            }
        return self.refs[key]

    @staticmethod
    def serve(g: GroupSpec, S: tuple) -> str:
        """What `framelab classify --group G --set S` computes and prints."""
        payload = diffsets.classify(g, S).as_dict()
        payload["frame"] = frames.frame_report(FrameSpec(g, S), tol=1e-7)
        return json.dumps(payload, indent=2, default=str)

    def run_pass(self, index: int, timed: Timer) -> PassResult:
        reqs = self.requests
        for f, S in reqs:
            self.reference(f, S)
        latencies, failed, problems = [], 0, []
        for f, S in reqs:
            text, dt = timed(self.serve, GroupSpec(f), S)
            latencies.append(dt)
            bad = self.check(f, S, text)
            failed += bool(bad)
            problems.extend(bad)
        return PassResult(latencies, len(reqs), failed, problems)

    def check(self, factors, subset, text: str) -> list[str]:
        label = f"{oracle.group_name(factors)} {list(subset)}"
        ref = self.reference(factors, subset)
        rep = json.loads(text)
        frame = rep["frame"]
        angles = [a["value"] for a in frame["angles"]]
        mults = [a["multiplicity"] for a in frame["angles"]]
        out = []
        if rep["group"] != oracle.group_name(factors) or rep["m"] != len(subset):
            out.append(f"{label}: report is for {rep['group']} m={rep['m']}")
        out.extend(angle_problems(label, angles, mults, ref["angles"], ref["mults"]))
        for a in frame["angles"]:
            if "symbolic" in a:
                try:
                    v = oracle.eval_surd(a["symbolic"])
                except ValueError as exc:
                    out.append(f"{label}: {exc}")
                    continue
                if abs(v - a["value"]) > oracle.VALUE_TOL:
                    out.append(f"{label}: {a['symbolic']} = {v!r}, not {a['value']!r}")
        lam = None if rep["difference_set"] is None else rep["difference_set"]["lam"]
        if lam != ref["lam"]:
            out.append(f"{label}: difference_set lam {lam} != oracle {ref['lam']}")
        if rep["bidifference"] != ref["bidifference"]:
            out.append(f"{label}: bidifference {rep['bidifference']} != oracle")
        if frame["is_etf"] != ref["is_etf"] or frame["is_tight"] is not True:
            out.append(f"{label}: is_etf/is_tight {frame['is_etf']}/{frame['is_tight']} wrong")
        return out


class VerifyAll:
    """One pass of every named verify suite, i.e. `framelab verify all`."""

    name = "verify-all"
    GROUPS = ()  # the suites span dozens of groups; their caches fill in the first pass
    CHECKS = 133

    def __init__(self, seed: int):
        pass  # the suites fix their own inputs; the seed has nothing to draw

    def inputs(self) -> list:
        return [{"call": "run_suite", "name": "all", "suites": list(verify.SUITES)}]

    def run_pass(self, index: int, timed: Timer) -> PassResult:
        results, dt = timed(verify.run_suite, "all")
        failed, problems = self.check(results)
        return PassResult([dt], max(len(results), self.CHECKS), failed, problems)

    def check(self, results) -> tuple[int, list[str]]:
        """(failed checks, messages); a missing check counts as failed."""
        problems = [f"{c.name}: {c.detail}" for c in results if not c.passed]
        if len(results) != self.CHECKS:
            problems.append(f"{len(results)} checks ran, expected {self.CHECKS}")
        return sum(not c.passed for c in results) + abs(len(results) - self.CHECKS), problems


WORKLOADS = {w.name: w for w in (Search, ReportMix, VerifyAll)}
