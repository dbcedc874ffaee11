#!/usr/bin/env python3
"""framelab benchmark: three workloads, end-to-end metrics, per-module layer trace.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload search --seed 1 --seconds 35 --trace 0

Run all three, each in a fresh process, and print every metric with its unit:

    python3 perfbench/run.py --workload all [--trace 1] [--out results.json]

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced replay of the same passes.  The program is
imported from ``src/`` next to this directory; without it the command exits
with status 2 before measuring anything.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # start of set-up as a setup probe measures it

import os  # noqa: E402

# pinned before numpy loads: one BLAS/OpenMP thread, no oversubscription
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("search", "report-mix", "verify-all")
SETUP_PROBES = 7
SLICES_PER_REQUEST = 200  # wall_s compares each request's slices across passes
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

VERIFY_SUITES = (
    "exhaustion-order8", "z6-example", "z9-example", "etf-difference", "paley",
    "gauss-sums", "quartic", "quartic-special", "modulation", "tables", "properties",
)
SPAN_FIELDS = {  # traced function -> per-layer fields reported for it
    "search.enumerate_and_classify": ("calls", "self_s", "total_s"),
    "diffsets.difference_counts": ("calls", "self_s", "total_s"),
    "diffsets.classify": ("calls", "self_s", "total_s"),
    "diffsets.nested_divisible_chain": ("calls", "self_s", "total_s"),
    "groups.all_subgroups": ("calls", "total_s"),
    "frames.frame_report": ("calls", "self_s", "total_s"),
    "frames.angle_profile": ("calls", "self_s", "total_s"),
    "frames.verify_tightness": ("self_s",),
    "frames.verify_modulation_identities": ("self_s",),
    "surd.recognize_angle": ("calls", "self_s", "total_s"),
    "predictions.run_all_table_checks": ("total_s",),
    "residues.gauss_sum": ("calls", "self_s", "total_s"),
    "residues.half_gauss_sum": ("calls", "self_s", "total_s"),
    **{f"verify.{s}": ("total_s",) for s in VERIFY_SUITES},
}
DERIVED = {  # per-layer metrics that are not a span field -> unit
    "search.subsets_visited": "count",
    "search.kept_ratio": "ratio",
    "diffsets.nested_divisible_chain.dag_ratio": "ratio",
    "surd.recognized_ratio": "ratio",
    "groups.all_subgroups.misses": "count",
    "groups.full_character_table.misses": "count",
    "trace.op_wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_op_wall_s": "s",
    "trace.overhead_s": "s",
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{f}": FIELD_UNITS[f] for fn, fs in SPAN_FIELDS.items() for f in fs}
    units.update(DERIVED)
    return units


# ---------------------------------------------------------------------------
# measurement


def note(kind: str, payload) -> None:
    """A human-readable line above the result line."""
    print(f"# {kind} {json.dumps(payload)}")


def machine_note() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "jobs": 1,
    }


def probe_setup(workload: str) -> float:
    """Set-up seconds of one fresh process: imports plus the workload's group caches."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile lies below
    the median, and the median (p50) is reported instead.
    """
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < len(xs) // 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure(workload, timed, seconds: float = 0.0, count: int | None = None, slicer=None) -> list:
    """Closed-loop passes, stopping at the whole pass nearest `seconds` of request time.

    With `count`, exactly that many passes instead.  With a `slicer` (whose
    `timed` is `timed`), each pass keeps the slices of its requests.
    """
    passes, busy, last = [], 0.0, 0.0
    while (busy + last / 2 < seconds) if count is None else (len(passes) < count):
        if slicer is not None:
            slicer.start_pass()
        res = workload.run_pass(len(passes), timed)
        if slicer is not None:
            res.slices = slicer.slices
        passes.append(res)
        busy += res.wall
        last = res.wall
    return passes


def best_pass(passes) -> tuple[float, int]:
    """(seconds, requests compared by slice) of one pass at its fastest in the run.

    Every pass makes the same requests in the same order, and request i makes
    the same library calls on every pass, so slice j of request i covers the
    same work on every pass.  A shared host only ever slows work down, in
    stretches of about a second that come and go through a run; the fastest
    repeat of a slice is the least disturbed one.  A request whose slice
    count differs between passes is compared whole.
    """
    total, sliced = 0.0, 0
    for i in range(len(passes[0].latencies)):
        runs = [p.slices[i] for p in passes]
        if len({len(r) for r in runs}) == 1:
            total += sum(min(col) for col in zip(*runs))
            sliced += 1
        else:
            total += min(p.latencies[i] for p in passes)
    return total, sliced


def end_to_end(passes, setup: list[float]) -> tuple[dict, list[str]]:
    wall, sliced = best_pass(passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": passes[0].ops / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_pass = (f"sum over the {len(passes[0].latencies)} request(s) of a pass of their slices' "
                f"fastest of {len(passes)} passes; {sliced} request(s) sliced")
    details = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": per_pass,
        "ops_per_s": f"{passes[0].ops} ops per pass over wall_s",
        "peak_rss_mb": "max resident set of the measuring process",
    }
    lines = [f"{k} = {v:.6g} {END_TO_END[k]} ({details[k]})" for k, v in values.items()]
    # request latency percentiles: printed, not bounded (see README, "Steadiness")
    lat = [x for p in passes for x in p.latencies]
    tail_v, tail_q = tail(lat)
    lines.append(f"p50_ms = {1e3 * statistics.median(lat):.6g} ms (median of {len(lat)} requests)")
    lines.append(f"tail_ms = {1e3 * tail_v:.6g} ms (p{tail_q:.1f} of {len(lat)} requests)")
    return values, lines


def per_layer(tracer, traced, untraced) -> tuple[dict, list[str]]:
    from spans import ROOT

    n = len(traced)
    span = {"calls": tracer.calls, "self_s": tracer.self_ns, "total_s": tracer.total_ns}
    values = {}
    for fn, fields in SPAN_FIELDS.items():
        for f in fields:
            raw = span[f].get(fn, 0)
            values[f"{fn}.{f}"] = raw / n if f == "calls" else raw / 1e9 / n
    c = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    op_wall = sum(p.wall for p in traced) / n
    untraced_wall = sum(p.wall for p in untraced) / len(untraced)
    values.update({
        "search.subsets_visited": c["search.subsets_visited"] / n,
        "search.kept_ratio": ratio(c["search.records_kept"], c["search.subsets_visited"]),
        "diffsets.nested_divisible_chain.dag_ratio": ratio(
            c["diffsets.nested_divisible_chain.dag"], tracer.calls.get("diffsets.nested_divisible_chain", 0)),
        "surd.recognized_ratio": ratio(
            c["surd.recognize_angle.recognized"], tracer.calls.get("surd.recognize_angle", 0)),
        "groups.all_subgroups.misses": tracer.cache_misses("groups.all_subgroups"),
        "groups.full_character_table.misses": tracer.cache_misses("groups.full_character_table"),
        "trace.op_wall_s": op_wall,
        "trace.self_sum_s": sum(tracer.self_ns.values()) / 1e9 / n,
        "trace.untraced_op_wall_s": untraced_wall,
        "trace.overhead_s": op_wall - untraced_wall,
    })
    self_ns, wall_ns = sum(tracer.self_ns.values()), tracer.total_ns.get(ROOT, 0)
    units = per_layer_units()
    lines = [f"{k} = {v:.6g} {units[k]}" for k, v in values.items()]
    lines.append(f"self times of all spans sum to {self_ns} ns; traced request wall is {wall_ns} ns")
    lines.append(
        f"tracing overhead {op_wall - untraced_wall:.4f} s per pass "
        f"({op_wall:.4f} s traced vs {untraced_wall:.4f} s untraced, {n} passes each)"
    )
    return values, lines


def run_one(args) -> int:
    from spans import Slicer
    from workloads import WORKLOADS, time_call, warm_group_caches

    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        warm_group_caches(cls.GROUPS)
        print(time.perf_counter() - _T0)
        return 0

    note("machine", machine_note())
    setup = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    warm_group_caches(cls.GROUPS)
    workload = cls(args.seed)

    if args.trace:
        from spans import Tracer

        warm = workload.run_pass(0, time_call)  # so both sides below start warm
        untraced = measure(workload, time_call, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            passes = measure(workload, tracer.timed, count=len(untraced))
        finally:
            tracer.uninstall()
        metrics, lines = per_layer(tracer, passes, untraced)
        units = per_layer_units()
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        lines.append(f"spans written to {trace_path.relative_to(HERE.parent)}")
        passes = [warm] + untraced + passes
    else:
        slicer = Slicer(SLICES_PER_REQUEST)
        slicer.install()
        try:
            warm = measure(workload, slicer.timed, count=1, slicer=slicer)  # counts calls
            slicer.calibrate()
            passes = measure(workload, slicer.timed, args.seconds, slicer=slicer)
        finally:
            slicer.uninstall()
        metrics, lines = end_to_end(passes, setup)
        passes = warm + passes
        units = END_TO_END

    note("inputs", workload.inputs())
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:20]:
        print(f"# GATE FAILED: {msg}")
    for line in lines:
        print(f"# metric {line}")
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"# error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of metrics."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} crashed with status {proc.returncode}")
        status |= proc.returncode
        results[name] = json.loads(lines[-1])
        print(f"== {name}")
        for line in lines[:-1]:
            if line.startswith("# metric") or line.startswith("# error_rate") or "GATE" in line:
                print(line[2:])
    report = {"machine": machine_note(), "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "results": results}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({name: r["correct"] for name, r in results.items()}))
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0, help="request time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write every result and a machine note here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (SRC / "framelab" / "__init__.py").is_file():
        sys.stderr.write(f"framelab sources not found under {SRC}; run from a framelab checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
