"""Scalar code the library's array kernels replaced, kept as a test oracle.

classify below is the set-based classifier the library used before
diffsets.classify became a one-row view of diffsets.classify_rows: counts
from a double loop over ordered pairs, two-level witnesses and splits
tested with Python sets, and the minimal subgroup chain as a shortest path
recomputed from the subgroup lattice for every subset.  None of it calls
the library's count kernel, row kernel or chain DAG, so tests that compare
the library against it are not comparing the library with itself.

oracle_modulation_operator and oracle_is_real_frame are the frames
functions before they read pair indices and the generators' coordinates:
one GroupSpec.sub per generator pair, one exact Fraction phase per
(generator, element).  oracle_verify_modulation_identities is the
identity check before it became matrix products: four einsums, over the
(n, m, m) operator stack and, for the Hilbert-Schmidt Gram matrix of the
definitional operators, over the character table and |<f_x, f_y>|^2.
oracle_dense_modulation_identities is the check before it worked from the
pair index alone: the closed forms scattered into a dense (n, m^2) array,
subtracted from T^T W and multiplied by the character table in two real
products for the inversion.  Both take y - x from GroupSpec.sub and
GroupSpec.index (_oracle_difference_table), not from the library's
tables, so a wrong library table cannot pass the oracle too.

oracle_frame_violations is the properties sweep before it went by
(group, m) blocks: one FrameSpec per subset, its angle_profile tight sum
and the spread of its sorted Gram rows from f.vectors().

oracle_full_character_table is the character table before it became one
phase product: one phase column per element, stacked.  The oracle_*gauss*
functions are the quadratic sums before the gather kernel, one exp array
per (a, p), and their closed forms with the sign from Python's pow.

oracle_all_subgroups is the subgroup lattice walk before it went on
coordinates: an (n, n) add table, the multiples of every element read from
it, and one np.unique per (subgroup, element).  oracle_quartic_family_angles
and oracle_quartic_special_cases are the two quartic functions from before
they shared residues.quartic_conditions, each with its own copy of the four
p = 4a^2 + c conditions.

oracle_subgroup_generated is groups.subgroup_generated before it grew H by
the lattice's coset step: a closure adding every sum of a new element with
every element found so far, O(|H|^2) GroupSpec.add calls.

oracle_cluster_rows is frames.cluster_rows before its means came from one
np.add.reduceat: the same sort and cuts, then one fancy-index gather and
sum(axis=1) / k per distinct cluster size k.

oracle_with_symbolic is frames._with_symbolic before recognition went by
Galois class: surd.recognize_angle on every angle of the profile, then the
conductor rule.

oracle_constant_split_rows is the row kernel's partial and Gaussian test
before both read the low-level mask of the subgroup witness: a masked
minimum and maximum of the counts inside the witness and outside it.
"""

import functools
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from framelab import surd
from framelab.arith import four_square_plus, is_prime, residues
from framelab.diffsets import (
    AlmostRecord,
    BidifferenceWitness,
    Classification,
    DiffCounts,
    DivisibleRecord,
    GaussianRecord,
    NestedChain,
    PartialRecord,
    RelativeRecord,
    reversal,
)
from framelab.diffsets import classify as library_classify
from framelab.errors import DomainError
from framelab.frames import (
    Clusters,
    FrameSpec,
    ModulationReport,
    _surd_in_cyclotomic_field,
    angle_profile,
)
from framelab.groups import (
    GroupSpec,
    Subgroup,
    _root_table,
    all_subgroups,
    character_phase,
    full_character_table,
    phase_column,
)
from framelab.predictions import _assemble, _etf_prediction, _surd_angle
from framelab.residues import QuarticCaseReport, _require_odd_prime, quartic_gaussian_ds


def oracle_difference_counts(g, S):
    subset = tuple(S)
    raw = {}
    for a in subset:
        for b in subset:
            if a != b:
                d = g.sub(a, b)
                raw[d] = raw.get(d, 0) + 1
    counts = {x: raw.get(x, 0) for x in g.elements() if x != g.zero}
    levels = {}
    for x, c in counts.items():
        levels.setdefault(c, []).append(x)
    return DiffCounts(g, subset, counts, {c: tuple(sorted(v)) for c, v in levels.items()})


def oracle_nested_divisible_chain(g, S, _dc=None):
    dc = _dc if _dc is not None else oracle_difference_counts(g, S)
    n = g.order
    values = dc.values()
    whole = tuple(sorted(g.elements()))
    subs = all_subgroups(g)
    sets = [h.as_set() for h in subs]
    if len(values) == 1:
        return NestedChain(g, dc.subset, ((g.zero,), whole), (values[0],))
    if len(values) == 2:
        for lam in values:
            A = frozenset(dc.levels[lam]) | {g.zero}
            if A in sets:
                mu = values[1] if lam == values[0] else values[0]
                return NestedChain(
                    g, dc.subset, ((g.zero,), tuple(sorted(A)), whole), (lam, mu),
                )
    sizes = [len(s) for s in sets]
    full = next(i for i, s in enumerate(sets) if len(s) == n)
    triv = next(i for i, s in enumerate(sets) if len(s) == 1)

    def annulus_value(i, j):
        vals = {dc.counts[x] for x in sets[j] - sets[i]}
        return vals.pop() if len(vals) == 1 else None

    def successors(i):
        return [
            j for j in range(len(subs))
            if sizes[j] > sizes[i] and sets[i] < sets[j] and annulus_value(i, j) is not None
        ]

    INF = float("inf")
    dist = [INF] * len(subs)
    dist[full] = 0
    for i in sorted(range(len(subs)), key=lambda t: -sizes[t]):
        if i == full:
            continue
        for j in successors(i):
            dist[i] = min(dist[i], dist[j] + 1)
    if dist[triv] == INF:
        return None
    chain_idx = [triv]
    cur = triv
    while cur != full:
        cur = min(
            (j for j in successors(cur) if dist[j] == dist[cur] - 1),
            key=lambda j: subs[j].elements,
        )
        chain_idx.append(cur)
    lambdas = tuple(
        annulus_value(chain_idx[k], chain_idx[k + 1]) for k in range(len(chain_idx) - 1)
    )
    return NestedChain(g, dc.subset, tuple(subs[i].elements for i in chain_idx), lambdas)


def _constant_split(dc, A):
    """(lam, mu) when counts are constant on A\\{0} and on the complement."""
    g = dc.group
    inside = {dc.counts[x] for x in A if x != g.zero}
    outside = {dc.counts[x] for x in dc.counts if x not in A}
    if len(inside) != 1 or len(outside) != 1:
        return None
    return inside.pop(), outside.pop()


def oracle_constant_split_rows(counts, inside):
    """Per row: one count value on the inside columns and one on the rest, both nonempty."""

    def constant(mask):
        return np.where(mask, counts, big).min(axis=1) == np.where(mask, counts, -1).max(axis=1)

    big = counts.max(initial=0) + 1
    return constant(inside) & constant(~inside)


def _level_is_subgroup(g, dc, lam):
    """Whether {0} + the level of lam is a subgroup."""
    return frozenset(dc.levels[lam]) | {g.zero} in {h.as_set() for h in all_subgroups(g)}


def classify(g, S):
    """Full taxonomy membership of a generator subset."""
    dc = oracle_difference_counts(g, S)
    subset = dc.subset
    n = g.order
    values = dc.values()
    zero = g.zero

    diff_lambda = values[0] if len(values) == 1 else None

    witnesses = []
    if len(values) == 2:
        for lam, mu in ((values[0], values[1]), (values[1], values[0])):
            A = tuple(sorted(dc.levels[lam] + (zero,)))
            witnesses.append(BidifferenceWitness(A, len(A), lam, mu))

    bidifference = len(values) <= 2
    proper_bidifference = len(values) == 2

    divisible = relative = None
    if proper_bidifference:
        for w in witnesses:
            if _level_is_subgroup(g, dc, w.lam):
                divisible = DivisibleRecord(w.A, w.l, w.lam, w.mu, w.lam != w.mu)
                break
    elif diff_lambda is not None:
        for h in all_subgroups(g):
            if 1 < h.order < n:
                divisible = DivisibleRecord(
                    h.elements, h.order, diff_lambda, diff_lambda, False
                )
                break
    if divisible is not None and divisible.lam == 0:
        relative = RelativeRecord(divisible.H, divisible.l, divisible.mu)

    partial = None
    A_s = frozenset(subset) | {zero}
    if len(A_s) < n:
        split = _constant_split(dc, A_s)
        if split is not None:
            lam, mu = split
            partial = PartialRecord(lam, mu, zero in subset, lam != mu)

    gaussian = None
    if g.rank == 1 and g.factors[0] > 2 and is_prime(g.factors[0]):
        p = g.factors[0]
        A_q = frozenset((r,) for r in residues(p, 2)) | {zero}
        split = _constant_split(dc, A_q)
        if split is not None:
            lam, mu = split
            gaussian = GaussianRecord(p, lam, mu, lam != mu)

    almost = None
    if len(values) == 2 and values[1] == values[0] + 1:
        lam = values[0]
        almost = AlmostRecord(lam, len(dc.levels[lam]))

    nested = oracle_nested_divisible_chain(g, subset, _dc=dc)

    rev = frozenset(reversal(g, subset)) == frozenset(subset)
    return Classification(
        group=g,
        subset=subset,
        counts=dc,
        difference_set_lambda=diff_lambda,
        bidifference=bidifference,
        proper_bidifference=proper_bidifference,
        bidifference_witnesses=tuple(witnesses),
        divisible=divisible,
        relative=relative,
        partial=partial,
        gaussian=gaussian,
        almost=almost,
        nested_divisible=nested,
        reversible=rev,
        regular=rev and zero not in subset,
    )


def oracle_modulation_operator(f, xi):
    """Closed-form entries of X_xi: (a, b) is n/m when g_b - g_a = xi."""
    entries = np.zeros((f.m, f.m), dtype=complex)
    for a, ga in enumerate(f.generators):
        for b, gb in enumerate(f.generators):
            if f.group.sub(gb, ga) == xi:
                entries[a, b] = f.n / f.m
    return entries


def oracle_is_real_frame(f):
    half = Fraction(1, 2)
    return all(
        character_phase(f.group, g, x) in (0, half)
        for g in f.generators
        for x in f.group.elements()
    )


@functools.lru_cache(maxsize=None)
def _oracle_difference_table(g):
    """(n, n) element indices of y - x at [x, y], one GroupSpec.sub per pair."""
    els = g.elements()
    return np.array([[g.index(g.sub(y, x)) for y in els] for x in els])


def _oracle_pairs(f):
    """(ids, pairs): the generators' element indices and the (m, m) indices of g_b - g_a."""
    ids = [f.group.index(x) for x in f.generators]
    return ids, _oracle_difference_table(f.group)[np.ix_(ids, ids)]


def oracle_verify_modulation_identities(f, tol=1e-8):
    n, m = f.n, f.m
    V = f.vectors()
    T = full_character_table(f.group)
    D = np.einsum("xz,xa,xb->zab", T, V, V.conj(), optimize=True)
    closed = np.where(_oracle_pairs(f)[1] == np.arange(n)[:, None, None], n / m, 0.0)
    dev_def = float(np.max(np.abs(D - closed)))

    G = V @ V.conj().T
    grams = np.einsum("xz,xy,yw->zw", T, np.abs(G) ** 2, T.conj(), optimize=True)
    dev_hs = float(np.max(np.abs(grams - np.diag(np.diag(grams)))))

    recon = np.einsum("xz,zab->xab", T.conj(), closed, optimize=True) / n
    outer = np.einsum("xa,xb->xab", V, V.conj(), optimize=True)
    dev_inv = float(np.max(np.abs(recon - outer)))

    hs = np.einsum("zab,zab->z", closed, closed.conj(), optimize=True).real
    rhs = T @ hs
    lhs = (n * n) * np.abs(G) ** 2
    idx = _oracle_difference_table(f.group)
    dev_enc = float(np.max(np.abs(lhs - rhs.real[idx])))
    return ModulationReport(dev_def, dev_hs, dev_inv, dev_enc, tol)


def oracle_dense_modulation_identities(f, tol=1e-8):
    n, m = f.n, f.m
    T = full_character_table(f.group)
    ids, pairs = _oracle_pairs(f)
    V = T[:, ids] / math.sqrt(m)
    W = (V[:, :, None] * V.conj()[:, None, :]).reshape(n, m * m)
    table = _oracle_difference_table(f.group)
    at = pairs.ravel()
    closed = np.zeros((n, m * m))
    closed[at, np.arange(m * m)] = n / m
    diff = T.T @ W
    diff -= closed
    dev_def = float(np.max(np.abs(diff)))

    A = np.abs(V @ V.conj().T) ** 2
    grams = T.T @ A @ T.conj()
    np.fill_diagonal(grams, 0.0)
    dev_hs = float(np.max(np.abs(grams)))

    diff.real = T.real @ closed
    diff.imag = T.imag @ closed
    np.negative(diff.imag, out=diff.imag)
    diff /= n
    diff -= W
    dev_inv = float(np.max(np.abs(diff)))

    hs = (n / m) ** 2 * np.bincount(at, minlength=n)
    rhs = T @ hs
    lhs = (n * n) * A
    dev_enc = float(np.max(np.abs(lhs - rhs.real[table])))
    return ModulationReport(dev_def, dev_hs, dev_inv, dev_enc, tol)


def oracle_frame_violations(g, m):
    """(frames, tight-sum violations, equidistribution violations) over the m-subsets."""
    frames = bad_tight = bad_equi = 0
    for subset in itertools.combinations(g.elements(), m):
        f = FrameSpec(g, subset)
        frames += 1
        if abs(angle_profile(f).tight_sum() - (g.order - m) / m) > 1e-8:
            bad_tight += 1
        V = f.vectors()
        G = np.abs(V @ V.conj().T)
        np.fill_diagonal(G, -1.0)
        rows = np.sort(G, axis=1)
        if np.max(rows.max(axis=0) - rows.min(axis=0)) > 1e-9:
            bad_equi += 1
    return frames, bad_tight, bad_equi


def oracle_cluster_rows(values, tol):
    """Clusters of each row of a (B, L) array, each mean from a per-size gather."""
    order = np.sort(values, axis=1)
    rows, width = order.shape
    gaps = order[:, 1:] - order[:, :-1]
    first = np.ones((rows, width), dtype=bool)
    first[:, 1:] = gaps > tol
    ambiguous = (first[:, 1:] & (gaps < 10 * tol)).any(axis=1)
    begin = np.flatnonzero(first)
    end = np.empty_like(begin)
    end[:-1] = begin[1:]
    end[-1:] = rows * width
    sizes = end - begin
    flat = order.ravel()
    reps = np.empty(len(begin))
    for k in set(sizes.tolist()):
        sel = sizes == k
        reps[sel] = flat[begin[sel, None] + np.arange(k)].sum(axis=1) / k
    starts = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(first.sum(axis=1), out=starts[1:])
    return Clusters(reps, sizes, starts, ambiguous, tol)


def oracle_with_symbolic(f, prof):
    """prof with one recognize_angle call per angle, forms outside Q(zeta_N) dropped."""
    extra = (f.n,) + f.group.factors
    forms = [surd.recognize_angle(a, extra_surds=extra) for a in prof.angles]
    N = f.group.exponent
    sym = tuple(
        surd.display(fm)
        if fm is not None and (fm.coef == 0 or _surd_in_cyclotomic_field(fm.surd, N))
        else None
        for fm in forms
    )
    return replace(prof, symbolic=sym)


def oracle_full_character_table(g):
    """(n, n) table chi_y(x), built one character column at a time."""
    return np.column_stack([_root_table(g)[phase_column(g, y)] for y in g.elements()])


def oracle_gauss_sum(a, p):
    ks = (a * np.arange(p, dtype=np.int64) ** 2) % p
    return complex(np.exp(2j * np.pi * ks / p).sum())


def oracle_half_gauss_sum(a, p):
    js = np.array((0,) + residues(p, 2), dtype=np.int64)
    return complex(np.exp(2j * np.pi * ((a * js) % p) / p).sum())


def _oracle_sign(a, p):
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def oracle_gauss_sum_closed_form(a, p):
    root = math.sqrt(p)
    sign = _oracle_sign(a, p)
    return complex(sign * root) if p % 4 == 1 else complex(0, sign * root)


def oracle_half_gauss_sum_closed_form(a, p):
    root = math.sqrt(p)
    sign = _oracle_sign(a, p)
    if p % 4 == 1:
        return complex((1 + sign * root) / 2)
    return complex(0.5, sign * root / 2)


def _oracle_add_table(g):
    """(n, n) table with entry [i, j] = index of x_j + x_i."""
    E = np.array(g.elements(), dtype=np.int64)
    n, k = E.shape
    radix = np.ones(k, dtype=np.int64)
    for j in range(k - 2, -1, -1):
        radix[j] = radix[j + 1] * g.factors[j + 1]
    table = np.zeros((n, n), dtype=np.int64)
    for j, f in enumerate(g.factors):
        table += ((E[None, :, j] + E[:, None, j]) % f) * radix[j]
    return table


def oracle_all_subgroups(g):
    """Every subgroup once, sorted by (order, element list): the add-table walk."""
    table = _oracle_add_table(g)
    n = g.order
    multiples = []
    for x in range(n):
        ms = [0]
        cur = x
        while cur != 0:
            ms.append(cur)
            cur = int(table[cur, x])
        multiples.append(np.array(ms, dtype=np.int64))
    trivial = np.array([0], dtype=np.int64)
    seen = {trivial.tobytes(): trivial}
    queue = [trivial]
    while queue:
        base = queue.pop()
        members = set(base.tolist())
        for x in range(n):
            if x in members:
                continue
            grown = np.unique(table[np.ix_(base, multiples[x])])
            key = grown.tobytes()
            if key not in seen:
                seen[key] = grown
                queue.append(grown)
    els = g.elements()
    subs = [Subgroup(g, tuple(els[i] for i in idx)) for idx in seen.values()]
    subs.sort(key=lambda h: (h.order, h.elements))
    return tuple(subs)


def oracle_subgroup_generated(g, gens):
    """Smallest subgroup containing gens (closure under add and negate)."""
    closure = {g.zero}
    frontier = []
    for x in gens:
        g.validate(x)
        for y in (x, g.neg(x)):
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    while frontier:
        x = frontier.pop()
        for y in list(closure):
            z = g.add(x, y)
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    return Subgroup(g, tuple(sorted(closure)))


def oracle_quartic_family_angles(p, with_zero):
    if not is_prime(p) or p % 8 != 5 or p <= 5:
        return None
    m = (p + 3) // 4 if with_zero else (p - 1) // 4
    root = {c: four_square_plus(p, c) for c in (1, 9, 25, 49)}  # p = 4 root^2 + c
    params = {"p": p, "m": m, "with_zero": with_zero}
    if not with_zero:
        if root[1] is not None and root[1] % 2 == 1:
            return _etf_prediction("quartic-residue", "quartic-family-rule", params, p, m)
        if root[9] is not None or root[25] is not None:
            den = Fraction(1, (p - 1) ** 2)
            pairs = []
            for sign in (+1, -1):
                a = _surd_angle((3 * p + 1) * den, sign * 8 * den, p)
                pairs.append((a[0], a[1], (p - 1) // 2))
            return _assemble("quartic-residue", "quartic-family-rule", params, p, m, pairs)
        return None
    if root[9] is not None and root[9] % 2 == 1:
        return _etf_prediction("quartic-residue", "quartic-family-rule", params, p, m)
    if root[1] is not None or root[49] is not None:
        den = Fraction(1, (p + 3) ** 2)
        pairs = []
        for sign in (+1, -1):
            a = _surd_angle((3 * p + 9) * den, sign * 8 * den, p)
            pairs.append((a[0], a[1], (p - 1) // 2))
        return _assemble("quartic-residue", "quartic-family-rule", params, p, m, pairs)
    return None


def oracle_quartic_special_cases(p):
    _require_odd_prime(p)
    if p % 4 != 1:
        raise DomainError(f"quartic special cases need p = 1 mod 4, got {p}")
    g = GroupSpec((p,))
    m4 = (p - 1) // 4

    root = {c: four_square_plus(p, c) for c in (1, 9, 25, 49)}  # p = 4 root^2 + c
    conditions = {
        "p=4a^2+1, a odd": root[1] is not None and root[1] % 2 == 1,
        "p=4a^2+9, a odd": root[9] is not None and root[9] % 2 == 1,
        "p=9+4a^2 or p=25+4a^2": root[9] is not None or root[25] is not None,
        "p=1+4a^2 or p=49+4a^2": root[1] is not None or root[49] is not None,
    }

    implications = []
    verified = True

    def quartic_set(with_zero):
        S = tuple((z,) for z in residues(p, 4))
        return ((0,),) + S if with_zero else S

    def check_difference_set(with_zero, lam):
        return library_classify(g, quartic_set(with_zero)).difference_set_lambda == lam

    def check_almost(with_zero, lam, t):
        cls = library_classify(g, quartic_set(with_zero))
        return cls.almost is not None and (cls.almost.lam, cls.almost.t) == (lam, t)

    if conditions["p=4a^2+1, a odd"]:
        lam = (p - 5) // 16
        ok = (p - 5) % 16 == 0 and check_difference_set(False, lam)
        implications.append(
            {"set": "R4", "class": "difference_set", "params": [p, m4, lam], "holds": ok}
        )
        verified &= ok
    if conditions["p=4a^2+9, a odd"]:
        lam = (p + 3) // 16
        ok = (p + 3) % 16 == 0 and check_difference_set(True, lam)
        implications.append(
            {"set": "R4+{0}", "class": "difference_set", "params": [p, m4 + 1, lam], "holds": ok}
        )
        verified &= ok
    if conditions["p=9+4a^2 or p=25+4a^2"]:
        if (p - 13) % 16 == 0:
            lam, t = (p - 13) // 16, (p - 1) // 2
            ok = check_almost(False, lam, t)
            implications.append(
                {"set": "R4", "class": "almost", "params": [p, m4, lam, t], "holds": ok}
            )
            verified &= ok
        else:
            implications.append(
                {"set": "R4", "class": "almost", "params": None, "holds": False,
                 "reason": "implied lambda not integral"}
            )
    if conditions["p=1+4a^2 or p=49+4a^2"]:
        if (p - 5) % 16 == 0:
            lam, t = (p - 5) // 16, (p - 1) // 2
            ok = check_almost(True, lam, t)
            implications.append(
                {"set": "R4+{0}", "class": "almost", "params": [p, m4 + 1, lam, t], "holds": ok}
            )
            verified &= ok
        else:
            implications.append(
                {"set": "R4+{0}", "class": "almost", "params": None, "holds": False,
                 "reason": "implied lambda not integral"}
            )

    if p % 8 == 5:
        quartic_gaussian_ds(p)
    return QuarticCaseReport(p, conditions, tuple(implications), verified)
