"""Named verification suites: each replays one headline computation end to end.

Every suite returns a list of CheckResult records; callers render one
pass/fail line per check.  The suites are also the backing for the
acceptance test module.

The two sides of a check are computed apart.  Sweeps over subsets read one
search per (group, m), whose ETF/BTF columns come from angle magnitudes and
clusters and whose class columns come from difference counts; what they are
compared with (the other column, translates, reversals, the brute-force
chain in _shortest_chain) is computed beside it; translates go by one
translate call per (group, shift), whose permutation moves every subset row
at once.  The tight-sum and equidistribution sweep reads character-table
blocks, all m-subsets of a group at once (_frame_violations): identity-row
magnitudes of each subset's own characters from frames.character_magnitudes
clustered in one call, and the Gram magnitudes of every frame as one batched
product.  The modulation check sets closed-form operators from
the generators' pair indices against products with the character table,
visiting its random frames group by group; the example, Paley, quartic and
table suites set closed forms from predictions and residues against frames
built from characters; gauss-sums sets the quadratic sums of all a of a
prime, from one kernel call, against closed forms signed by Euler's
criterion.  Every sweep's range is fixed but etf-difference's max_order,
and one below 2, which would cover nothing, is a DomainError, not a pass.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arith import is_prime
from .diffsets import classify, pds_zero_toggle, reversal, translate
from .errors import DomainError
from .frames import (
    DEFAULT_ANGLE_TOL,
    MODULATION_TOL,
    FrameSpec,
    angle_profile,
    btf_multiplicities_from_angles,
    character_magnitudes,
    classify_angularity,
    cluster_rows,
    verify_modulation_identities,
)
from .groups import GroupSpec, all_subgroups, full_character_table, parse_group, parse_subset
from .predictions import (
    dds_angles,
    gaussian_angles,
    quartic_family_angles,
    run_all_table_checks,
)
from .residues import (
    gauss_sum_table,
    paley_pds,
    quartic_coset_decomposition,
    quartic_gaussian_ds,
    quartic_special_cases,
)
from .search import SearchJob, abelian_groups_of_order, enumerate_and_classify


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# Suites


def _shortest_chain(g: GroupSpec, subset) -> float:
    """Length of the shortest count-constant subgroup chain of subset (inf: none).

    Brute force, independent of the chain DAG: counts from the ordered
    pairs of subset, then every chain {0} = A_0 < ... < A_t = G whose annuli
    A_i \\ A_(i-1) each carry a single count value.
    """
    counts = Counter(g.sub(a, b) for a in subset for b in subset if a != b)
    sets = [h.as_set() for h in all_subgroups(g)]

    def shortest(A: frozenset) -> float:
        if len(A) == g.order:
            return 0
        return min(
            (1 + shortest(B) for B in sets if A < B and len({counts[x] for x in B - A}) == 1),
            default=math.inf,
        )

    return shortest(frozenset([g.zero]))


def suite_exhaustion_order8() -> list[CheckResult]:
    """3-subsets of the order-8 groups matching the angle set {1/3, sqrt(5)/3}.

    One search per group.  A match's chain is proper when its length t is
    the shortest found by trying every subgroup chain (_shortest_chain).
    """
    t0 = time.perf_counter()
    target = (1 / 3, math.sqrt(5) / 3)
    expected = {"Z2xZ2xZ2": 0, "Z2xZ4": 32, "Z8": 16}
    out = []
    chain_lengths = {}
    for g in abelian_groups_of_order(8):
        name, want = g.name, expected[g.name]
        found = enumerate_and_classify(SearchJob(g, 3, target_angles=target)).records
        chain_lengths[name] = {r.flags["t"] for r in found}
        proper = sum(1 for r in found if r.flags["t"] == _shortest_chain(g, r.subset))
        bidifference = sum(1 for r in found if r.flags["bidifference"])
        out += [
            _check(f"exhaustion-order8/{name}-count", len(found) == want,
                   f"found {len(found)} matches, expected {want}"),
            _check(f"exhaustion-order8/{name}-all-proper-nested", proper == len(found),
                   f"{proper}/{len(found)} proper chains"),
            _check(f"exhaustion-order8/{name}-no-bidifference", bidifference == 0,
                   f"{bidifference} bidifference matches"),
        ]
    # every Z2xZ4 / Z8 match is an (8,3,3) chain
    for gname in ("Z2xZ4", "Z8"):
        ts = chain_lengths[gname]
        out.append(
            _check(
                f"exhaustion-order8/{gname}-chain-length",
                ts == {3},
                f"chain lengths: {sorted(ts)}",
            )
        )
    elapsed = time.perf_counter() - t0
    out.append(_check("exhaustion-order8/runtime", elapsed < 1.0, f"{elapsed:.3f}s"))
    return out


def suite_z6_example() -> list[CheckResult]:
    """The (6,3,2,2,1) set {0,1,3}: classification, angles, multiplicities."""
    t0 = time.perf_counter()
    g = parse_group("Z6")
    S = parse_subset(g, "0,1,3")
    cls = classify(g, S)
    out = []
    d = cls.divisible
    got = None if d is None else (cls.n, cls.m, d.l, d.lam, d.mu)
    out.append(
        _check("z6/divisible-params", got == (6, 3, 2, 2, 1), f"classified {got}")
    )
    out.append(
        _check(
            "z6/relative-subgroup",
            d is not None and d.H == ((0,), (3,)),
            f"H = {None if d is None else d.H}",
        )
    )
    prof = angle_profile(FrameSpec(g, S))
    pred = dds_angles(6, 3, 2, 2, 1)
    dev = max(abs(a - b) for a, b in zip(prof.angles, pred.angles))
    out.append(
        _check(
            "z6/angles-match-rule",
            prof.d == 2 and dev <= 1e-10,
            f"profile {prof.angles} vs rule {pred.angles}, dev {dev:.2e}",
        )
    )
    counted = dict(zip(prof.angles, prof.multiplicities))
    third = min(prof.angles)
    out.append(
        _check(
            "z6/counted-multiplicities",
            counted[third] == 3 and counted[max(prof.angles)] == 2,
            f"counted {counted}",
        )
    )
    derived = btf_multiplicities_from_angles(6, 3, *sorted(prof.angles))
    out.append(
        _check(
            "z6/multiplicity-identity",
            derived == tuple(prof.multiplicities),
            f"identity gives {derived}, counted {prof.multiplicities}",
        )
    )
    out.append(
        _check(
            "z6/stated-count-discrepancy-flagged",
            pred.multiplicity_conflict and pred.stated_multiplicities == (2, 3)
            and pred.derived_multiplicities == (3, 2),
            f"stated {pred.stated_multiplicities} vs derived {pred.derived_multiplicities} "
            "(the stated n/l count includes the identity character index)",
        )
    )
    elapsed = time.perf_counter() - t0
    out.append(_check("z6/runtime", elapsed < 0.1, f"{elapsed:.3f}s"))
    return out


def suite_z9_example() -> list[CheckResult]:
    """{0,1,3,4} in Z9: a two-level set whose frame has four angles."""
    t0 = time.perf_counter()
    g = parse_group("Z9")
    S = parse_subset(g, "0,1,3,4")
    cls = classify(g, S)
    out = []
    wit = next(
        (w for w in cls.bidifference_witnesses if w.lam == 2 and w.mu == 1), None
    )
    out.append(
        _check(
            "z9/bidifference",
            cls.proper_bidifference and wit is not None,
            f"witnesses {[(w.l, w.lam, w.mu) for w in cls.bidifference_witnesses]}",
        )
    )
    out.append(
        _check(
            "z9/witness-A",
            wit is not None and wit.A == ((0,), (1,), (3,), (6,), (8,)),
            f"A = {None if wit is None else wit.A}",
        )
    )
    # the witness cardinality satisfies the two-level counting identity
    # m(m-1) = lam(l-1) + mu(n-l), which pins l = 5 (printed elsewhere as 4)
    consistent = wit is not None and 4 * 3 == wit.lam * (wit.l - 1) + wit.mu * (9 - wit.l)
    out.append(
        _check(
            "z9/witness-size",
            consistent and wit.l == 5,
            f"l = {None if wit is None else wit.l} satisfies the counting identity "
            "(a printed value of 4 would not)",
        )
    )
    ang = classify_angularity(FrameSpec(g, S))
    out.append(
        _check(
            "z9/four-angular",
            ang.d == 4 and not ang.is_btf,
            f"{ang.d} angles: {tuple(round(a, 6) for a in ang.profile.angles)}",
        )
    )
    out.append(
        _check(
            "z9/not-divisible-not-partial",
            cls.divisible is None and cls.partial is None,
            "two-level set generating a non-two-angle frame",
        )
    )
    elapsed = time.perf_counter() - t0
    out.append(_check("z9/runtime", elapsed < 0.1, f"{elapsed:.3f}s"))
    return out


def suite_etf_difference(max_order: int = 10) -> list[CheckResult]:
    """Equiangularity <=> one-level difference structure, exhaustively.

    One etf-filtered search per (group, m).  Its ETF column comes from angle
    magnitudes and clusters, its difference-set column from difference
    counts, so the two sides are computed apart.  A mismatch is a kept ETF
    without the difference_set flag, or a difference set the filter dropped:
    the check holds when every kept record is a difference set and
    class_counts["difference_set"] equals the number kept.
    """
    if max_order < 2:
        raise DomainError(f"etf-difference sweep needs --max-order >= 2, got {max_order}")
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    for n in range(2, max_order + 1):
        for g in abelian_groups_of_order(n):
            for m in range(2, n + 1):
                report = enumerate_and_classify(SearchJob(g, m, filter_name="etf"))
                both = sum(1 for r in report.records if r.flags["difference_set"])
                difference_sets = report.class_counts.get("difference_set", 0)
                mismatches += len(report.records) + difference_sets - 2 * both
                checked += report.total_enumerated
    elapsed = time.perf_counter() - t0
    return [
        _check(
            "etf-difference/equivalence",
            not mismatches,
            f"{checked} subsets over orders 2..{max_order}, {mismatches} mismatches",
        ),
        _check("etf-difference/runtime", elapsed < 30.0, f"{elapsed:.3f}s"),
    ]


PALEY_BIANGULAR = (13, 17, 29, 37, 41)
PALEY_EQUIANGULAR = (7, 11, 19, 23)
GAUSS_MAX_P = 97  # gauss-sums covers the odd primes up to here
# modulation draws this many frames of order at most MODULATION_MAX_ORDER
MODULATION_TRIALS, MODULATION_MAX_ORDER, MODULATION_SEED = 200, 32, 718


def suite_paley() -> list[CheckResult]:
    """Quadratic residue sets: two-angle for p = 1 mod 4, one-angle for p = 3 mod 4."""
    t0 = time.perf_counter()
    out = []
    for p in PALEY_BIANGULAR:
        S, cls = paley_pds(p)
        want = (p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4)
        got = (cls.n, cls.m, cls.partial.lam, cls.partial.mu) if cls.partial else None
        out.append(_check(f"paley/p{p}-pds-params", got == want, f"{got}"))
        prof = angle_profile(FrameSpec(GroupSpec((p,)), S))
        expect = sorted((1 / (math.sqrt(p) + 1), 1 / (math.sqrt(p) - 1)))
        dev = max(abs(a - b) for a, b in zip(prof.angles, expect))
        out.append(
            _check(
                f"paley/p{p}-angles",
                prof.d == 2 and dev <= 1e-9,
                f"angles {prof.angles}, dev {dev:.2e}",
            )
        )
    for p in PALEY_EQUIANGULAR:
        S, cls = paley_pds(p)
        lam = (p - 3) // 4
        out.append(
            _check(
                f"paley/p{p}-difference-set",
                cls.difference_set_lambda == lam,
                f"lambda = {cls.difference_set_lambda}",
            )
        )
        ang = classify_angularity(FrameSpec(GroupSpec((p,)), S))
        out.append(_check(f"paley/p{p}-etf", ang.is_etf, ang.label))
    elapsed = time.perf_counter() - t0
    out.append(_check("paley/runtime", elapsed < 5.0, f"{elapsed:.3f}s"))
    return out


def suite_gauss_sums() -> list[CheckResult]:
    """Numeric quadratic sums against the four-case closed forms, all a, p <= GAUSS_MAX_P.

    Per prime and kind, one gauss_sum_table call gives the numeric sums of
    every a in 1..p-1 (one kernel gather from the root table) beside their
    closed forms, signed by Euler's criterion rather than by the residue set
    the half sums run over.
    """
    t0 = time.perf_counter()
    worst = {"full": 0.0, "half": 0.0}
    for p in filter(is_prime, range(3, GAUSS_MAX_P + 1)):
        for kind in worst:
            numeric, closed = gauss_sum_table(p, half=kind == "half")
            worst[kind] = max(worst[kind], float(np.abs(numeric - closed).max()))
    elapsed = time.perf_counter() - t0
    out = [
        _check(f"gauss-sums/{kind}", dev <= 1e-9, f"max deviation {dev:.2e} over p <= {GAUSS_MAX_P}")
        for kind, dev in worst.items()
    ]
    out.append(_check("gauss-sums/runtime", elapsed < 5.0, f"{elapsed:.3f}s"))
    return out


QUARTIC_PRIMES = (13, 29, 37, 53, 61)


def suite_quartic() -> list[CheckResult]:
    """Fourth-power subsets of Z_p, p = 8q+5: structure, memberships, angles."""
    t0 = time.perf_counter()
    out = []
    for p in QUARTIC_PRIMES:
        q = (p - 5) // 8
        S, (lam, mu) = quartic_gaussian_ds(p)
        out.append(
            _check(
                f"quartic/p{p}-lambda-mu",
                lam + mu == q,
                f"(lam, mu) = ({lam}, {mu}), sum {lam + mu} = q",
            )
        )
        g = GroupSpec((p,))
        cls = classify(g, S)
        out.append(
            _check(
                f"quartic/p{p}-gaussian",
                cls.gaussian is not None and (cls.gaussian.lam, cls.gaussian.mu) == (lam, mu),
                f"gaussian record {cls.gaussian}",
            )
        )
        cosets = quartic_coset_decomposition(p)
        out.append(
            _check(
                f"quartic/p{p}-memberships",
                (p - 1) in cosets[2] and (p - 2) in cosets[3],
                "-1 in 4R4 and -2 in 8R4",
            )
        )
        if lam != mu:
            pred = gaussian_angles(p, (p - 1) // 4, lam, mu)
            prof = angle_profile(FrameSpec(g, S))
            dev = max(abs(a - b) for a, b in zip(prof.angles, pred.angles))
            out.append(
                _check(
                    f"quartic/p{p}-angles",
                    prof.d == 2 and dev <= 1e-8,
                    f"dev {dev:.2e}",
                )
            )
            out.append(
                _check(
                    f"quartic/p{p}-multiplicities",
                    tuple(prof.multiplicities) == ((p - 1) // 2, (p - 1) // 2),
                    f"{prof.multiplicities}",
                )
            )
        else:
            ang = classify_angularity(FrameSpec(g, S))
            out.append(_check(f"quartic/p{p}-etf", ang.is_etf, ang.label))
    elapsed = time.perf_counter() - t0
    out.append(_check("quartic/runtime", elapsed < 10.0, f"{elapsed:.3f}s"))
    return out


def suite_quartic_special() -> list[CheckResult]:
    """The representable-prime special cases at p = 37 and p = 29."""
    out = []
    rep37 = quartic_special_cases(37)
    ds = next(
        (i for i in rep37.implications if i["class"] == "difference_set" and i["set"] == "R4"),
        None,
    )
    out.append(
        _check(
            "quartic-special/p37-difference-set",
            ds is not None and ds["holds"] and ds["params"] == [37, 9, 2],
            f"{ds}",
        )
    )
    rep29 = quartic_special_cases(29)
    alm = next((i for i in rep29.implications if i["class"] == "almost"), None)
    out.append(
        _check(
            "quartic-special/p29-almost",
            alm is not None and alm["holds"] and alm["params"] == [29, 7, 1, 14],
            f"{alm}",
        )
    )
    pred = quartic_family_angles(29, with_zero=False)
    S, _ = quartic_gaussian_ds(29)
    prof = angle_profile(FrameSpec(GroupSpec((29,)), S))
    expect = sorted(
        (math.sqrt(88 + 8 * math.sqrt(29)) / 28, math.sqrt(88 - 8 * math.sqrt(29)) / 28)
    )
    dev_closed = max(abs(a - b) for a, b in zip(pred.angles, expect))
    dev_frame = max(abs(a - b) for a, b in zip(prof.angles, expect))
    out.append(
        _check(
            "quartic-special/p29-angles",
            dev_closed <= 1e-12 and dev_frame <= 1e-8,
            f"closed-form dev {dev_closed:.2e}, frame dev {dev_frame:.2e}",
        )
    )
    return out


def _random_frame(rng: random.Random) -> FrameSpec:
    n = rng.randint(2, MODULATION_MAX_ORDER)
    g = rng.choice(abelian_groups_of_order(n))
    m = rng.randint(1, n)
    subset = tuple(sorted(rng.sample(g.elements(), m)))
    return FrameSpec(g, subset)


def suite_modulation(group: str | None = None, subset: str | None = None) -> list[CheckResult]:
    """Hilbert-Schmidt orthogonality, inversion, and the angle encoding identity."""
    t0 = time.perf_counter()
    out = []
    if subset is not None and group is None:
        raise DomainError("modulation check on a named set needs --group")
    if group is not None:
        if not subset:
            raise DomainError("modulation check on a named group needs --set")
        g = parse_group(group)
        S = parse_subset(g, subset)
        rep = verify_modulation_identities(FrameSpec(g, S))
        for key, val in rep.as_dict().items():
            if key.endswith("_deviation"):
                out.append(_check(f"modulation/{group}-{key}", val <= rep.tolerance, f"{val:.2e}"))
        return out
    rng = random.Random(MODULATION_SEED)
    drawn = [_random_frame(rng) for _ in range(MODULATION_TRIALS)]
    worst = {"definitional": 0.0, "hs": 0.0, "inversion": 0.0, "encoding": 0.0}
    # one group after another, so each group's tables are built once
    for f in sorted(drawn, key=lambda f: f.group.factors):
        rep = verify_modulation_identities(f)
        worst["definitional"] = max(worst["definitional"], rep.definitional_deviation)
        worst["hs"] = max(worst["hs"], rep.hs_orthogonality_deviation)
        worst["inversion"] = max(worst["inversion"], rep.inversion_deviation)
        worst["encoding"] = max(worst["encoding"], rep.angle_encoding_deviation)
    elapsed = time.perf_counter() - t0
    for key, val in worst.items():
        out.append(
            _check(
                f"modulation/{key}",
                val <= MODULATION_TOL,
                f"max deviation {val:.2e} over {MODULATION_TRIALS} random frames "
                f"(n <= {MODULATION_MAX_ORDER})",
            )
        )
    out.append(_check("modulation/runtime", elapsed < 120.0, f"{elapsed:.3f}s"))
    return out


def suite_tables() -> list[CheckResult]:
    """Every tabulated family row at its sample instantiations, within predictions.TABLE_TOL."""
    out = []
    for rep in run_all_table_checks():
        name = f"tables/{rep.table}-row{rep.row}-{rep.sample}"
        if rep.skipped:
            out.append(_check(name, False, f"skipped: {rep.skipped}"))
        else:
            out.append(_check(name, rep.passed, f"deviation {rep.deviation:.2e}"))
    return out


def _frame_violations(g: GroupSpec, m: int) -> tuple[int, int, int]:
    """(frames, tight-sum violations, equidistribution violations) over all m-subsets.

    The frames of all m-subsets are one (B, m) block idx of character indices
    of T = full_character_table(g).  Tight sum: the identity-row magnitudes
    from frames.character_magnitudes(T, idx), summed over each subset's own
    characters, so every frame's own sums are tested; angle_magnitudes and
    search sum the characters of the subset's class representative instead,
    so the two can differ in the last bits.  The magnitudes are clustered in
    one cluster_rows call, then sum t a^2 per row against (n - m) / m.
    Equidistribution: the Gram magnitudes |V V^*| of V = T[:, idx] / sqrt(m)
    as one batched product; with the diagonal set to -1 and each row sorted,
    every row must be the same.
    """
    n = g.order
    T = full_character_table(g)
    idx = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    c = cluster_rows(character_magnitudes(T, idx), DEFAULT_ANGLE_TOL)
    tight = np.add.reduceat(c.sizes * c.reps * c.reps, c.starts[:-1])
    V = np.moveaxis(T[:, idx], 0, 1) / math.sqrt(m)  # (B, n, m)
    G = np.abs(V @ V.conj().swapaxes(1, 2))
    G[:, np.arange(n), np.arange(n)] = -1.0
    rows = np.sort(G, axis=2)
    spread = (rows.max(axis=1) - rows.min(axis=1)).max(axis=1)
    return (
        len(idx),
        int(np.count_nonzero(np.abs(tight - (n - m) / m) > 1e-8)),
        int(np.count_nonzero(spread > 1e-9)),
    )


# search record columns that depend on S itself, not only on its difference counts
_SET_COLUMNS = ("partial", "reversible", "regular")


def suite_properties() -> list[CheckResult]:
    """Cross-cutting invariants on a sweep of small groups.

    Classification sweeps read one search per (group, m); the translates and
    reversals they compare with are computed here, apart from the search.
    Translation invariance makes one translate(g, g.elements(), c) call per
    (group, c): the index permutation it gives moves all subset rows by one
    gather, each moved row is sorted and looked up by its packed key, and
    the count-derived columns of the two records are compared entrywise.
    The frame sweep reads one character-table block per (group, m).
    """
    out = []
    t0 = time.perf_counter()

    # translation invariance of the count-derived record columns: S + c against S
    bad_translate = 0
    checked_translate = 0
    for n in (6, 8, 9):
        for g in abelian_groups_of_order(n):
            records = enumerate_and_classify(SearchJob(g, 3)).records
            pos = {x: i for i, x in enumerate(g.elements())}
            rows = np.array([[pos[x] for x in r.subset] for r in records])
            # the count-derived record columns, one row per subset
            flags = np.array(
                [[v for k, v in r.flags.items() if k not in _SET_COLUMNS] for r in records],
                dtype=object,
            )
            radix = n ** np.arange(3)
            row_of = np.full(n**3, -1)
            row_of[rows @ radix] = np.arange(len(rows))
            for c in g.elements()[1:]:
                # translate moves the whole group once; subset rows follow by gather
                perm = np.array([pos[y] for y in translate(g, g.elements(), c)])
                moved = row_of[np.sort(perm[rows], axis=1) @ radix]
                checked_translate += len(rows)
                same = (flags[moved] == flags).all(axis=1)
                bad_translate += int(np.count_nonzero((moved < 0) | ~same))
    out.append(
        _check(
            "properties/translation-invariance",
            bad_translate == 0,
            f"{checked_translate} translated classifications compared",
        )
    )

    # equidistribution and the tight-sum identity for every frame in the sweep
    frames = bad_tight = bad_equi = 0
    for n in range(2, 9):
        for g in abelian_groups_of_order(n):
            for m in range(1, n + 1):
                counted, tight, equi = _frame_violations(g, m)
                frames += counted
                bad_tight += tight
                bad_equi += equi
    out.append(
        _check(
            "properties/tight-sum-identity",
            bad_tight == 0,
            f"{frames} frames, {bad_tight} violations",
        )
    )
    out.append(
        _check(
            "properties/equidistribution",
            bad_equi == 0,
            f"{frames} frames, {bad_equi} violations",
        )
    )

    # every detected proper partial set (lam != mu, so not a difference set)
    # is reversible
    bad_rev = 0
    found_pds = 0
    for n in (5, 8, 9, 13):
        for g in abelian_groups_of_order(n):
            for m in (3, 4):
                for r in enumerate_and_classify(SearchJob(g, m, filter_name="partial")).records:
                    if not r.flags["difference_set"]:
                        found_pds += 1
                        if frozenset(reversal(g, r.subset)) != frozenset(r.subset):
                            bad_rev += 1
    out.append(
        _check(
            "properties/pds-reversibility",
            found_pds > 0 and bad_rev == 0,
            f"{found_pds} proper partial sets, {bad_rev} non-reversible",
        )
    )

    # zero-toggle parameter law, both directions, re-verified by classification
    toggles_ok = True
    detail = []
    for p in (13, 17):
        g = GroupSpec((p,))
        S, cls = paley_pds(p)
        plus, params_plus = pds_zero_toggle(g, S)
        expect_plus = (p, (p - 1) // 2 + 1, (p - 5) // 4 + 2, (p - 1) // 4)
        back, params_back = pds_zero_toggle(g, plus)
        expect_back = (p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4)
        ok = (
            params_plus == expect_plus
            and params_back == expect_back
            and frozenset(back) == frozenset(S)
        )
        toggles_ok &= ok
        detail.append(f"p={p}: {params_plus} <-> {params_back}")
    out.append(_check("properties/pds-zero-toggle", toggles_ok, "; ".join(detail)))

    elapsed = time.perf_counter() - t0
    out.append(_check("properties/runtime", elapsed < 60.0, f"{elapsed:.3f}s"))
    return out


SUITES = {
    "exhaustion-order8": suite_exhaustion_order8,
    "z6-example": suite_z6_example,
    "z9-example": suite_z9_example,
    "etf-difference": suite_etf_difference,
    "paley": suite_paley,
    "gauss-sums": suite_gauss_sums,
    "quartic": suite_quartic,
    "quartic-special": suite_quartic_special,
    "modulation": suite_modulation,
    "tables": suite_tables,
    "properties": suite_properties,
}


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    """The checks of one named suite, or of every suite for 'all'.

    kwargs are the named suite's own parameters; 'all' takes none.  An
    unknown suite, or an argument the suite does not take, is a DomainError
    raised before any suite runs.
    """
    if name == "all":
        suites, takes = list(SUITES.values()), {}
    elif name in SUITES:
        suites, takes = [SUITES[name]], inspect.signature(SUITES[name]).parameters
    else:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    for key in kwargs:
        if key not in takes:
            raise DomainError(f"suite {name!r} takes no argument {key!r}")
    return [r for suite in suites for r in suite(**kwargs)]
