"""Command-line entry point.

Subcommands: classify, angles, predict, search, gauss, tables, verify.
Exit codes: 0 success, 1 domain error, 2 usage error.  Reports are JSON
(schema field = 1); search and tables also write CSV, chosen with
`--format csv`.  `--out` writes to a file, with the format inferred from a
.json/.csv suffix.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .diffsets import classify, nested_divisible_chain
from .errors import FramelabError
from .frames import FrameSpec, frame_report
from .groups import parse_group, parse_subset
from .predictions import (
    dds_angles,
    gaussian_angles,
    ndds_angles,
    pds_angles,
    quartic_family_angles,
    rds_angles,
    run_all_table_checks,
)
from .residues import (
    gauss_sum,
    half_gauss_sum,
    legendre,
    paley_pds,
    quartic_coset_decomposition,
    quartic_gaussian_ds,
    quartic_special_cases,
    residue_class,
)
from .search import SearchJob, cross_group_angle_match, default_jobs, enumerate_and_classify
from .verify import SUITES, run_suite


def _emit(args, payload: dict | list, csv_rows: list[list] | None = None) -> None:
    fmt = getattr(args, "format", "json")
    out_path = getattr(args, "out", None)
    if out_path:
        if out_path.endswith(".csv"):
            fmt = "csv"
        elif out_path.endswith(".json"):
            fmt = "json"
    if fmt == "csv":
        if csv_rows is None:
            raise FramelabError("csv output not available for this command")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, default=str) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frame_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, help="e.g. Z8 or Z2xZ4")
    p.add_argument("--set", required=True, dest="subset",
                   help="e.g. 0,1,3 or {(0,0),(1,0),(0,1)}")


def cmd_classify(args) -> int:
    g = parse_group(args.group)
    S = parse_subset(g, args.subset)
    cls = classify(g, S)
    payload = cls.as_dict()
    payload["frame"] = frame_report(FrameSpec(g, S), tol=args.tol)
    _emit(args, payload)
    return 0


def cmd_angles(args) -> int:
    g = parse_group(args.group)
    S = parse_subset(g, args.subset)
    _emit(args, frame_report(FrameSpec(g, S), tol=args.tol))
    return 0


# option destinations and the flags that set them, for predict and verify
_FLAGS = {
    "group": "--group", "subset": "--set", "max_order": "--max-order",
    "n": "-n", "m": "-m", "l": "-l", "lam": "--lam", "mu": "--mu", "p": "-p",
}

# the options each predict family needs; a missing one is a usage error
_PREDICT_OPTIONS = {
    "dds": ("n", "m", "l", "lam", "mu"),
    "rds": ("n", "m", "l", "mu"),
    "pds": ("n", "m", "lam", "mu"),
    "gaussian": ("p", "m", "lam", "mu"),
    "quartic": ("p",),
    "ndds": ("group", "subset"),
}


def cmd_predict(args) -> int:
    fam = args.family
    missing = [_FLAGS[k] for k in _PREDICT_OPTIONS[fam] if getattr(args, k) is None]
    if missing:
        args.usage_error(f"predict {fam} needs {', '.join(missing)}")
    if fam == "dds":
        pred = dds_angles(args.n, args.m, args.l, args.lam, args.mu)
    elif fam == "rds":
        pred = rds_angles(args.n, args.m, args.l, args.mu)
    elif fam == "pds":
        pred = pds_angles(args.n, args.m, args.lam, args.mu, args.zero_in_s)
    elif fam == "gaussian":
        pred = gaussian_angles(args.p, args.m, args.lam, args.mu)
    elif fam == "quartic":
        pred = quartic_family_angles(args.p, args.zero_in_s)
        if pred is None:
            _emit(args, {"schema": 1, "applicable": False, "p": args.p,
                         "with_zero": args.zero_in_s})
            return 0
    elif fam == "ndds":
        g = parse_group(args.group)
        S = parse_subset(g, args.subset)
        chain = nested_divisible_chain(g, S)
        if chain is None:
            raise FramelabError(f"{args.subset} has no subgroup chain in {args.group}")
        res = ndds_angles(chain)
        payload = res.prediction.as_dict()
        payload["biangular"] = res.biangular
        payload["shell_values"] = [list(t) for t in res.shell_values]
        _emit(args, payload)
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise FramelabError(f"unknown family {fam}")
    _emit(args, pred.as_dict())
    return 0


def cmd_search(args) -> int:
    target = None
    filter_name = args.filter
    if filter_name and filter_name.startswith("angles="):
        target = tuple(sorted(float(t) for t in filter_name[len("angles="):].split(",")))
        filter_name = None
    jobs = args.jobs if args.jobs else default_jobs()
    if args.order is not None:
        if target is None and filter_name is None:
            raise FramelabError("--order search needs --filter angles=...")
        if target is None:
            raise FramelabError("cross-group search supports angle filters only")
        payload = cross_group_angle_match(args.order, args.m, target, jobs=jobs)
        _emit(args, payload)
        return 0
    g = parse_group(args.group)
    job = SearchJob(
        g, args.m, mode=args.mode, filter_name=filter_name,
        target_angles=target, jobs=jobs,
    )
    report = enumerate_and_classify(job)
    _emit(args, report.to_dict(), csv_rows=report.to_csv_rows())
    return 0


def cmd_gauss(args) -> int:
    act = args.action
    if act == "legendre":
        payload = {"schema": 1, "a": args.a, "p": args.p, "legendre": legendre(args.a, args.p)}
    elif act == "sum":
        v = gauss_sum(args.a, args.p)
        payload = {"schema": 1, "a": args.a, "p": args.p, "real": v.real, "imag": v.imag}
    elif act == "half-sum":
        v = half_gauss_sum(args.a, args.p)
        payload = {"schema": 1, "a": args.a, "p": args.p, "real": v.real, "imag": v.imag}
    elif act == "residues":
        rc = residue_class(args.p, args.power)
        payload = {"schema": 1, "p": rc.p, "power": rc.s, "elements": list(rc.elements)}
    elif act == "cosets":
        cosets = quartic_coset_decomposition(args.p)
        payload = {"schema": 1, "p": args.p, "cosets": [list(c) for c in cosets]}
    elif act == "paley":
        S, cls = paley_pds(args.p)
        payload = {"schema": 1, "p": args.p, "subset": [x[0] for x in S],
                   "classification": cls.as_dict()}
    elif act == "quartic":
        S, (lam, mu) = quartic_gaussian_ds(args.p, args.zero_in_s)
        payload = {"schema": 1, "p": args.p, "with_zero": args.zero_in_s,
                   "subset": [x[0] for x in S], "lam": lam, "mu": mu}
    elif act == "special":
        rep = quartic_special_cases(args.p)
        payload = {"schema": 1, "p": rep.p, "conditions": rep.conditions,
                   "implications": list(rep.implications), "verified": rep.verified}
    else:  # pragma: no cover
        raise FramelabError(f"unknown gauss action {act}")
    _emit(args, payload)
    return 0


def cmd_tables(args) -> int:
    reports = run_all_table_checks()
    rows: list[list] = [[
        "table", "row", "sample", "n", "m", "l", "lam", "mu",
        "alpha1", "alpha2", "deviation", "passed",
    ]]
    for r in reports:
        alphas = list(r.table_alphas) if r.table_alphas else ["", ""]
        rows.append([
            r.table, r.row, json.dumps(r.sample), *r.columns(),
            alphas[0], alphas[1],
            "" if r.deviation is None else f"{r.deviation:.3e}", r.passed,
        ])
    payload = {"schema": 1, "checks": [r.as_dict() for r in reports]}
    _emit(args, payload, csv_rows=rows)
    return 0


# the options each verify suite reads; giving one it does not read is an error
_VERIFY_OPTIONS = {"modulation": ("group", "subset"), "etf-difference": ("max_order",)}


def cmd_verify(args) -> int:
    given = {k: v for k in _FLAGS if (v := getattr(args, k, None)) is not None}
    unread = [_FLAGS[k] for k in given if k not in _VERIFY_OPTIONS.get(args.suite, ())]
    if unread:
        raise FramelabError(f"verify {args.suite} does not take {', '.join(unread)}")
    results = run_suite(args.suite, **given)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="framelab",
        description="Harmonic frames from abelian group characters: "
        "angle profiles, difference-structure taxonomy, closed-form "
        "predictors, exhaustive search.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="taxonomy + frame report for one subset")
    _frame_args(p)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("angles", help="angle profile and tightness for one subset")
    _frame_args(p)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("predict", help="closed-form angle prediction from parameters")
    p.add_argument("family", choices=("dds", "rds", "pds", "gaussian", "quartic", "ndds"))
    p.add_argument("-n", type=int)
    p.add_argument("-m", type=int)
    p.add_argument("-l", type=int)
    p.add_argument("--lam", type=int)
    p.add_argument("--mu", type=int)
    p.add_argument("-p", type=int)
    p.add_argument("--zero-in-s", action="store_true", dest="zero_in_s")
    p.add_argument("--group")
    p.add_argument("--set", dest="subset")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict, usage_error=p.error)

    p = sub.add_parser("search", help="enumerate and classify m-subsets")
    p.add_argument("--group", help="single group, e.g. Z2xZ4")
    p.add_argument("--order", type=int, help="all abelian groups of this order")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--filter", help="etf | btf | <class-name> | angles=a,b")
    p.add_argument("--mode", choices=("full", "reduced"), default="full")
    p.add_argument("--jobs", type=int, default=0, help="0 = FRAMELAB_JOBS or 1")
    p.add_argument("--out", help="report path (.json or .csv)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gauss", help="residue classes and quadratic sums as JSON")
    gs = p.add_subparsers(dest="action", required=True)
    for name in ("legendre", "sum", "half-sum"):
        q = gs.add_parser(name)
        q.add_argument("a", type=int)
        q.add_argument("p", type=int)
        q.add_argument("--out")
    q = gs.add_parser("residues")
    q.add_argument("p", type=int)
    q.add_argument("--power", type=int, choices=(2, 4), default=2)
    q.add_argument("--out")
    q = gs.add_parser("cosets")
    q.add_argument("p", type=int)
    q.add_argument("--out")
    q = gs.add_parser("paley")
    q.add_argument("p", type=int)
    q.add_argument("--out")
    q = gs.add_parser("quartic")
    q.add_argument("p", type=int)
    q.add_argument("--with-zero", action="store_true", dest="zero_in_s")
    q.add_argument("--out")
    q = gs.add_parser("special")
    q.add_argument("p", type=int)
    q.add_argument("--out")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("tables", help="tabulated families with sample instantiations")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=tuple(sorted(SUITES)) + ("all",))
    p.add_argument("--group", help="for: verify modulation --group Z6 --set 0,1,3")
    p.add_argument("--set", dest="subset")
    p.add_argument("--max-order", type=int, dest="max_order")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except FramelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
