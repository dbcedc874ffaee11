"""Command-line entry point.

Subcommands: classify, angles, predict, search, gauss, tables, verify.
Exit codes: 0 success, 1 domain error, 2 usage error.  The flag rules are
argparse declarations: each predict family is a subcommand whose required
flags are its predictor's parameters, by name; each verify suite is a
subcommand, where modulation takes --group/--set, etf-difference takes
--max-order and no other suite takes a flag; search takes exactly one of
--group and --order, and --mode reduced only with --group.  A missing flag,
a flag the command does not read, or two flags that exclude each other is
a usage error.  --jobs (default 1, at least 1) is the worker count of a search;
--tol (default frames.DEFAULT_ANGLE_TOL) is the angle tolerance of classify and
angles.  Reports are JSON (schema field = 1); search with --group and tables
also write CSV, chosen with `--format csv`.  `--out` writes to a file, with the
format inferred from a .json/.csv suffix in any letter case.  CSV asked of any
other command is an error (exit 1), raised before the command does any work.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from collections.abc import Callable

from .diffsets import classify, nested_divisible_chain
from .errors import DomainError, FramelabError
from .frames import DEFAULT_ANGLE_TOL, FrameSpec, frame_report
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
from .search import SearchJob, cross_group_angle_match, enumerate_and_classify
from .verify import SUITES, run_suite


def _format(args) -> str:
    """The report format: a .json/.csv suffix of --out in any case, else --format, else json."""
    out_path = (getattr(args, "out", None) or "").lower()
    for fmt in ("json", "csv"):
        if out_path.endswith("." + fmt):
            return fmt
    return getattr(args, "format", "json")


def _has_csv(args) -> bool:
    """Whether the command writes CSV: tables, and search with --group."""
    return args.command == "tables" or (args.command == "search" and args.order is None)


def _emit(
    args,
    payload: dict | list | Callable[[], dict | list],
    csv_rows: list[list] | Callable[[], list[list]] | None = None,
) -> None:
    """Write the JSON payload, or the CSV rows when the format is csv.

    Either may be given as a zero-argument builder, called only when its
    format is the one written: a search report's rows cost more than the
    search on large jobs.
    """
    if _format(args) == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            csv_rows() if callable(csv_rows) else csv_rows
        )
        text = buf.getvalue()
    else:
        data = payload() if callable(payload) else payload
        text = json.dumps(data, indent=2, default=str) + "\n"
    out_path = getattr(args, "out", None)
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


def cmd_predict(args) -> int:
    # each family's flags are its predictor's parameters, by name
    params = {k: getattr(args, k) for k in inspect.signature(args.predictor).parameters}
    pred = args.predictor(**params)
    if pred is None:  # quartic: p lies in neither family
        _emit(args, {"schema": 1, "applicable": False, **params})
    else:
        _emit(args, pred.as_dict())
    return 0


def cmd_predict_ndds(args) -> int:
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


def cmd_search(args) -> int:
    target = None
    filter_name = args.filter
    if filter_name and filter_name.startswith("angles="):
        values = filter_name[len("angles="):]
        try:
            target = tuple(sorted(float(t) for t in values.split(",")))
        except ValueError:
            msg = f"--filter angles= takes a comma list of numbers, got {values!r}"
            raise DomainError(msg) from None
        filter_name = None
    if args.order is not None:
        if target is None:
            raise FramelabError("--order search needs --filter angles=...")
        payload = cross_group_angle_match(args.order, args.m, target, jobs=args.jobs)
        _emit(args, payload)
        return 0
    g = parse_group(args.group)
    job = SearchJob(
        g, args.m, mode=args.mode, filter_name=filter_name,
        target_angles=target, jobs=args.jobs,
    )
    report = enumerate_and_classify(job)
    _emit(args, report.to_dict, csv_rows=report.to_csv_rows)
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
        S, (lam, mu) = quartic_gaussian_ds(args.p, args.with_zero)
        payload = {"schema": 1, "p": args.p, "with_zero": args.with_zero,
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


def cmd_verify(args) -> int:
    # suite flags default to SUPPRESS, so the namespace holds only the flags given
    given = {k: v for k, v in vars(args).items() if k not in ("command", "suite", "func")}
    results = run_suite(args.suite, **given)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _family(fams, out, name: str, predictor, *flags: str) -> argparse.ArgumentParser:
    """A predict family whose integer flags are all required and name predictor's parameters."""
    q = fams.add_parser(name, parents=[out])
    for flag in flags:
        q.add_argument(flag, type=int, required=True)
    q.set_defaults(func=cmd_predict, predictor=predictor)
    return q


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="framelab",
        description="Harmonic frames from abelian group characters: "
        "angle profiles, difference-structure taxonomy, closed-form "
        "predictors, exhaustive search.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # every command but verify writes a report
    out.add_argument("--out", help="report path; a .json or .csv suffix sets the format")

    p = sub.add_parser("classify", parents=[out], help="taxonomy + frame report for one subset")
    _frame_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_ANGLE_TOL)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("angles", parents=[out], help="angle profile and tightness for one subset")
    _frame_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_ANGLE_TOL)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("predict", help="closed-form angle prediction from parameters")
    fams = p.add_subparsers(dest="family", required=True)
    _family(fams, out, "dds", dds_angles, "-n", "-m", "-l", "--lam", "--mu")
    _family(fams, out, "rds", rds_angles, "-n", "-m", "-l", "--mu")
    q = _family(fams, out, "pds", pds_angles, "-n", "-m", "--lam", "--mu")
    q.add_argument("--zero-in-s", action="store_true")
    _family(fams, out, "gaussian", gaussian_angles, "-p", "-m", "--lam", "--mu")
    q = _family(fams, out, "quartic", quartic_family_angles, "-p")
    q.add_argument("--zero-in-s", action="store_true", dest="with_zero")
    q = fams.add_parser("ndds", parents=[out])
    _frame_args(q)
    q.set_defaults(func=cmd_predict_ndds)

    p = sub.add_parser("search", parents=[out], help="enumerate and classify m-subsets")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--group", help="single group, e.g. Z2xZ4")
    where.add_argument("--order", type=int, help="all abelian groups of this order")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--filter", help="etf | btf | <class-name> | angles=a,b")
    p.add_argument("--mode", choices=("full", "reduced"), default="full",
                   help="reduced: subsets containing 0; --group only")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gauss", help="residue classes and quadratic sums as JSON")
    gs = p.add_subparsers(dest="action", required=True)
    for name in ("legendre", "sum", "half-sum"):
        q = gs.add_parser(name, parents=[out])
        q.add_argument("a", type=int)
        q.add_argument("p", type=int)
    q = gs.add_parser("residues", parents=[out])
    q.add_argument("p", type=int)
    q.add_argument("--power", type=int, choices=(2, 4), default=2)
    for name in ("cosets", "paley", "special"):
        gs.add_parser(name, parents=[out]).add_argument("p", type=int)
    q = gs.add_parser("quartic", parents=[out])
    q.add_argument("p", type=int)
    q.add_argument("--with-zero", action="store_true")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("tables", parents=[out],
                       help="tabulated families with sample instantiations")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run a named verification suite")
    suites = p.add_subparsers(dest="suite", required=True)
    suite = {name: suites.add_parser(name) for name in (*sorted(SUITES), "all")}
    suite["modulation"].add_argument("--group", default=argparse.SUPPRESS,
                                     help="with --set: check one named frame")
    suite["modulation"].add_argument("--set", dest="subset", default=argparse.SUPPRESS)
    suite["etf-difference"].add_argument("--max-order", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "order", None) is not None and args.mode == "reduced":
        ap.error("search --order searches each group in full; --mode reduced takes --group")
    try:
        if _format(args) == "csv" and not _has_csv(args):  # before any work
            raise FramelabError("csv output not available for this command")
        return args.func(args)
    except FramelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
