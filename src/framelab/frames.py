"""Harmonic frames: construction, angle profiles, tightness and modulation diagnostics.

A generator subset S = {g_1, ..., g_m} of a group of order n defines the n
unit vectors f_x = (1/sqrt(m)) (chi_{g_j}(x))_j.  Everything observable about
the frame reduces to character sums: <f_x, f_y> = (1/m) sum_j chi_{g_j}(x-y),
so angle profiles need only the n-1 sums against the identity index
(character_magnitudes, shared with search and verify), and the frame is
materialized as an explicit array only for the verification paths.  Every
translate and the negation of S have the same angles, so frames and search
sum the characters of one representative of that class
(class_representatives), and all of them report the same bits.  The
generators' differences g_b - g_a (FrameSpec.pairs, behind the class
representative and the closed-form modulation operators) come from their
coordinates, so no frame report builds an n x n table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import surd
from .diffsets import _row_weights
from .errors import (
    CapacityError,
    DomainError,
    InconsistentAnglesError,
    InvalidParametersError,
    InvalidSubsetError,
)
from .groups import (
    Element,
    GroupSpec,
    _character_block,
    _coords,
    _difference_index_table,
    _pair_differences,
    _radix,
    character_phase,
    character_table_columns,
    full_character_table,
    galois_orbits,
)

DEFAULT_ANGLE_TOL = 1e-7
MODULATION_CAPACITY = 4_000_000  # bound on n * m^2
MODULATION_TOL = 1e-8  # bound on every deviation of verify_modulation_identities


@dataclass(frozen=True)
class FrameSpec:
    """A group together with an ordered subset of character indices."""

    group: GroupSpec
    generators: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise InvalidSubsetError("generator subset must be nonempty")
        for x in self.generators:
            self.group.validate(x)
        if len(set(self.generators)) != len(self.generators):
            raise InvalidSubsetError("generator subset has duplicate elements")

    @property
    def m(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.group.order

    def vectors(self) -> np.ndarray:
        """(n, m) array of frame vectors as rows; built on demand only."""
        return character_table_columns(self.group, self.generators) / math.sqrt(self.m)

    def pairs(self) -> np.ndarray:
        """(m, m) element indices of g_j - g_i at [i, j], from coordinates."""
        return _pair_differences(self.group, np.array(self.generators) @ _radix(self.group))


def frame_inner_product(f: FrameSpec, x: Element, y: Element) -> complex:
    """<f_x, f_y> = (1/m) sum_j chi_{g_j}(x - y)."""
    z = f.group.sub(x, y)
    total = sum(
        np.exp(2j * np.pi * float(character_phase(f.group, g, z)))
        for g in f.generators
    )
    return complex(total) / f.m


def _check_frame_size(n: int, m: int) -> None:
    """DomainError unless n >= 2 vectors in dimension 1 <= m <= n."""
    if n < 2:
        raise DomainError(f"a frame needs n >= 2, got n={n}")
    if not 1 <= m <= n:
        raise DomainError(f"a frame needs 1 <= m <= n, got m={m}, n={n}")


def welch_bound(n: int, m: int) -> float:
    """Lower bound sqrt((n-m)/(m(n-1))) on the maximal pairwise magnitude."""
    _check_frame_size(n, m)
    return math.sqrt((n - m) / (m * (n - 1)))


@dataclass(frozen=True)
class AngleProfile:
    """Distinct off-identity inner-product magnitudes with multiplicities."""

    angles: tuple[float, ...]
    multiplicities: tuple[int, ...]
    tolerance: float
    ambiguous: bool
    symbolic: tuple[str | None, ...] = field(default=())

    @property
    def d(self) -> int:
        return len(self.angles)

    def tight_sum(self) -> float:
        return sum(t * a * a for a, t in zip(self.angles, self.multiplicities))

    def as_dict(self) -> dict:
        entries = []
        for i, (a, t) in enumerate(zip(self.angles, self.multiplicities)):
            e: dict = {"value": a, "multiplicity": t}
            if i < len(self.symbolic) and self.symbolic[i] is not None:
                e["symbolic"] = self.symbolic[i]
            entries.append(e)
        return {"angles": entries, "tolerance": self.tolerance, "ambiguous": self.ambiguous}


@dataclass(frozen=True)
class Clusters:
    """Chain clusters of each row of a magnitude array, flattened row after row.

    Row i's clusters are reps[starts[i]:starts[i + 1]] with multiplicities
    sizes[starts[i]:starts[i + 1]], in increasing order.
    """

    reps: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    ambiguous: np.ndarray  # per row: two clusters closer than 10 * tol
    tol: float

    @property
    def d(self) -> np.ndarray:
        """Number of clusters per row."""
        return self.starts[1:] - self.starts[:-1]

    def profile(self, i: int) -> AngleProfile:
        a, b = self.starts[i], self.starts[i + 1]
        return AngleProfile(
            tuple(self.reps[a:b].tolist()), tuple(self.sizes[a:b].tolist()),
            self.tol, bool(self.ambiguous[i]),
        )


def cluster_rows(values: np.ndarray, tol: float) -> Clusters:
    """Chain-cluster each row of a (B, L) array at gap <= tol; L >= 1.

    A row is sorted and cut wherever neighbours differ by more than tol; a
    cut closer than 10 * tol marks the row ambiguous.  A cluster's value is
    its mean, sum / size, with every sum from one np.add.reduceat over the
    sorted values laid out flat with a 0.0 in front of each cluster (value
    i moves right by the number of clusters begun at or before it).  The
    zero matters: reduceat adds a segment's first value to the pairwise sum
    of the rest, so a segment 0.0, v_1..v_k gives 0.0 + the pairwise sum of
    v_1..v_k, the same bits as ndarray.sum and ndarray.mean over the
    cluster, where a segment without it would not.  Every path that
    clusters angles comes here, so this is where tol must be finite and
    positive (DomainError).
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"angle tolerance must be finite and positive, got {tol}")
    order = np.sort(values, axis=1)
    rows, width = order.shape
    gaps = order[:, 1:] - order[:, :-1]
    first = np.ones((rows, width), dtype=bool)  # where a cluster begins
    first[:, 1:] = gaps > tol
    ambiguous = (first[:, 1:] & (gaps < 10 * tol)).any(axis=1)
    begin = np.flatnonzero(first)
    clusters = len(begin)
    sizes = np.empty_like(begin)
    sizes[:-1] = begin[1:] - begin[:-1]
    sizes[-1:] = rows * width - begin[-1:]
    at = np.cumsum(first)  # clusters begun at or before each flat position
    starts = np.zeros(rows + 1, dtype=np.int64)
    starts[1:] = at[width - 1 :: width]
    at += np.arange(rows * width)  # each sorted value's place, past the zeros
    padded = np.zeros(rows * width + clusters)
    padded[at] = order.ravel()
    reps = np.add.reduceat(padded, begin + np.arange(clusters)) / sizes
    return Clusters(reps, sizes, starts, ambiguous, tol)


def etf_btf(n: int, m: int, c: Clusters) -> tuple[np.ndarray, np.ndarray]:
    """Per row of c: (ETF, BTF) for frames of n vectors in C^m.

    ETF: one angle, at the Welch bound within c.tol.  BTF: two angles whose
    tight-sum t1 a1^2 + t2 a2^2 equals (n - m) / m within 1e-8.
    """
    d = c.d
    first = c.starts[:-1]
    is_etf = (d == 1) & (np.abs(c.reps[first] - welch_bound(n, m)) <= c.tol)
    is_btf = d == 2
    a, b = first[is_btf], first[is_btf] + 1
    tight_sum = c.sizes[a] * c.reps[a] * c.reps[a] + c.sizes[b] * c.reps[b] * c.reps[b]
    is_btf[is_btf] = np.abs(tight_sum - (n - m) / m) <= 1e-8
    return is_etf, is_btf


def character_magnitudes(T: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(B, n - 1) magnitudes |sum_j T[rows[i, j], x]| / m, x = 1..n-1, of a (B, m) index block.

    Row y of T is chi_y at every element (column 0 the identity; the full
    character table is symmetric), so row i of the result is the angle
    magnitudes |<f_x, f_0>|, x != 0, of the frame generated by rows[i].  The
    m rows are added left to right, one in-place add per generator, so the
    same characters give the same bits whatever the memory layout of T.
    This is the one place characters are summed into magnitudes: frames,
    search blocks and the verify sweep all call it.
    """
    total = T[rows[:, 0], 1:]
    for j in range(1, rows.shape[1]):
        total += T[rows[:, j], 1:]
    mags = np.abs(total)
    mags /= rows.shape[1]
    return mags


def class_representatives(g: GroupSpec, pairs: np.ndarray) -> np.ndarray:
    """(B, m) representative of the translate-negation class of each row of a
    (B, m, m) pair block, entry [b, i, j] the element index of s_j - s_i.

    The class of S holds every translate of S and of -S.  Its members share
    one angle set: translating S by h multiplies the character sum at x by
    chi_x(h), and negating S conjugates it, so no magnitude moves.  The
    representative is the translate of S or of -S that contains 0 with the
    least key, the wrapping sum of diffsets._row_weights(n) over its
    elements, as sorted element indices.  Those translates are the 2m
    candidates S - s_i and s_j - S, row i and column j of the pair block.
    Search gathers the block from the difference index table
    (diffsets._pair_block, shared with the count step); angle_magnitudes
    takes its one row from FrameSpec.pairs.  Every member of a class has the
    same candidates, so the same representative; only two distinct
    candidates with equal keys (a 64-bit collision) are told apart by
    position.
    """
    B, m, _ = pairs.shape
    weights = _row_weights(g.order).take(pairs)
    keys = np.concatenate((np.einsum("bij->bi", weights), np.einsum("bij->bj", weights)), axis=1)
    rep = pairs.reshape(B, m * m)[np.arange(B)[:, None], _candidate_cells(m)[keys.argmin(axis=1)]]
    rep.sort(axis=1)
    return rep


@lru_cache(maxsize=None)
def _candidate_cells(m: int) -> np.ndarray:
    """(2m, m) flat cells of an (m, m) pair block: row c (S - s_c) for the
    first m candidates, column c (s_c - S) for the last m."""
    c, k = np.indices((m, m))
    return np.concatenate((c * m + k, k * m + c))


def angle_magnitudes(f: FrameSpec) -> np.ndarray:
    """|<f_x, f_0>| for every x != 0: one character_magnitudes row over the
    characters of the frame's class representative (class_representatives).

    The representative's one pair block row is FrameSpec.pairs, and its
    m character columns come from the phase product behind
    character_table_columns (groups._character_block), so no n x n table is
    built and any group order is served.  Every translate and the negation
    of the generators, in any order, give the bits of their search records.
    """
    g = f.group
    rep = class_representatives(g, f.pairs()[None])[0]
    table = _character_block(g, _coords(g, rep)).T
    return character_magnitudes(table, np.arange(f.m)[None, :])[0]


def angle_profile(
    f: FrameSpec, tol: float = DEFAULT_ANGLE_TOL, symbolic: bool = False
) -> AngleProfile:
    """Cluster the n-1 identity-row magnitudes into the frame's angle set."""
    mags = angle_magnitudes(f)
    prof = cluster_rows(mags[None, :], tol).profile(0)
    return _with_symbolic(f, prof, mags) if symbolic else prof


def _with_symbolic(f: FrameSpec, prof: AngleProfile, mags: np.ndarray) -> AngleProfile:
    """prof with the exact form of each angle, None where there is none.

    prof is the clustering of mags.  The forms come once per Galois orbit of
    characters (_recognized_forms), and a form whose surd cannot lie in
    Q(zeta_N), N the group exponent, is dropped (_surd_in_cyclotomic_field).
    """
    forms = _recognized_forms(f, prof, mags)
    N = f.group.exponent
    sym = tuple(surd.display(fm) if fm is not None and _admissible(fm, N) else None for fm in forms)
    return replace(prof, symbolic=sym)


def _recognized_forms(
    f: FrameSpec, prof: AngleProfile, mags: np.ndarray
) -> list[surd.SurdForm | None]:
    """Per angle of prof, its exact form, read once per Galois orbit.

    Each squared angle m^2 |<f_x, f_0>|^2 lies in Q(zeta_N)^+, and the Galois
    map sigma_k sends its value at x to its value at kx, so the values on one
    orbit of characters (groups.galois_orbits) are conjugates of each other.
    Each cluster looks at the orbit of its first character, in the argsort
    order cluster_rows cuts.  The first time an orbit is seen, its form is
    surd.orbit_form of its values, which serves every orbit of one or two
    distinct values.  An orbit that rule refuses, one of three or more
    values, is looked up by the magnitude of its smallest-index character, a
    value some character has: a form already found, or its conjugate, when
    one matches within surd.VERIFY_TOL (surd.conjugate_form); none when that
    magnitude lies within VERIFY_TOL of a magnitude of an orbit whose search
    failed (sigma_k maps two orbits that share one value alike, so they
    share all their values); else one surd.recognize_angle call.  The
    cluster takes the orbit's form or its conjugate, whichever matches the
    cluster's own angle within VERIFY_TOL, and no form when neither does, as
    when it merges characters of different magnitudes.
    """
    extra = (f.n,) + f.group.factors
    # mags[i] is element i + 1's; per i, the position of its orbit's first
    orbit = galois_orbits(f.group)[1:] - 1
    firsts = np.argsort(mags, kind="stable")[np.cumsum((0,) + prof.multiplicities[:-1])]
    found: dict[int, surd.SurdForm | None] = {}
    failed = np.empty(0)  # the magnitudes of orbits whose search failed
    forms: list[surd.SurdForm | None] = []
    for o, a in zip(orbit[firsts].tolist(), prof.angles):
        if o not in found:
            own, v = mags[orbit == o], float(mags[o])
            fm = surd.orbit_form(((f.m * own) ** 2).tolist(), f.m, f.n)
            if fm is None:
                known = (surd.conjugate_form(k, v) for k in found.values() if k is not None)
                fm = next((k for k in known if k is not None), None)
            if fm is None and not (np.abs(failed - v) <= surd.VERIFY_TOL).any():
                fm = surd.recognize_angle(v, extra_surds=extra)
                if fm is None:
                    failed = np.concatenate((failed, own))
            found[o] = fm
        forms.append(None if found[o] is None else surd.conjugate_form(found[o], a))
    return forms


def _admissible(form: surd.SurdForm, N: int) -> bool:
    """Whether form can be a squared angle of a group of exponent N: rational,
    or its surd in Q(zeta_N)."""
    return form.coef == 0 or _surd_in_cyclotomic_field(form.surd, N)


def _surd_in_cyclotomic_field(s: int, N: int) -> bool:
    """Whether sqrt(s), s > 1 squarefree, lies in Q(zeta_N).

    Angles squared are sums of N-th roots of unity, so a recognized form whose
    surd fails this test is a spurious integer relation.  Q(sqrt(s)) has
    conductor s when s = 1 (mod 4) and 4s otherwise, and lies in Q(zeta_N)
    exactly when its conductor divides N.
    """
    return (s % 4 == 1 and N % s == 0) or N % (4 * s) == 0


@dataclass(frozen=True)
class TightnessReport:
    frame_constant: float
    max_deviation: float
    passed: bool


def verify_tightness(f: FrameSpec) -> TightnessReport:
    """Check sum_x f_x (x) f_x^* = (n/m) I entrywise to 1e-9; deviations are reported, not raised."""
    V = f.vectors()
    S = V.T @ V.conj()
    target = (f.n / f.m) * np.eye(f.m)
    dev = float(np.max(np.abs(S - target)))
    return TightnessReport(f.n / f.m, dev, dev <= 1e-9)


@dataclass(frozen=True)
class AngularityReport:
    d: int
    is_etf: bool
    is_btf: bool
    welch: float
    profile: AngleProfile

    @property
    def label(self) -> str:
        if self.is_etf:
            return "ETF"
        if self.is_btf:
            return "BTF"
        return f"{self.d}-angular"


def classify_angularity(f: FrameSpec, tol: float = DEFAULT_ANGLE_TOL) -> AngularityReport:
    """d-angularity with ETF (Welch equality) and BTF (2 angles + tight) flags."""
    return _angularity(f, angle_magnitudes(f), tol)


def _angularity(f: FrameSpec, mags: np.ndarray, tol: float) -> AngularityReport:
    c = cluster_rows(mags[None, :], tol)
    is_etf, is_btf = etf_btf(f.n, f.m, c)
    prof = c.profile(0)
    return AngularityReport(prof.d, bool(is_etf[0]), bool(is_btf[0]), welch_bound(f.n, f.m), prof)


def btf_multiplicities_from_angles(n: int, m: int, alpha1: float, alpha2: float) -> tuple[int, int]:
    """Multiplicities forced by the tight-sum identity for a two-angle frame, integral to 1e-6."""
    _check_frame_size(n, m)
    if not 0 <= alpha1 <= 1 or not 0 <= alpha2 <= 1:
        raise InvalidParametersError("angles must lie in [0, 1]")
    if alpha1 == alpha2:
        raise InvalidParametersError("angles must be distinct")
    w2 = (n - m) / (m * (n - 1))
    t1 = (n - 1) / (alpha2**2 - alpha1**2) * (alpha2**2 - w2)
    t2 = (n - 1) - t1
    r1, r2 = round(t1), round(t2)
    if abs(t1 - r1) > 1e-6 or abs(t2 - r2) > 1e-6 or r1 < 0 or r2 < 0:
        raise InconsistentAnglesError(
            f"angles ({alpha1}, {alpha2}) give non-integral multiplicities ({t1}, {t2})"
        )
    return r1, r2


# ---------------------------------------------------------------------------
# Modulation operators


@dataclass(frozen=True)
class ModulationOperator:
    """Fourier transform value of x -> f_x (x) f_x^* at frequency xi."""

    xi: Element
    entries: np.ndarray

    @property
    def hs_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2))


def modulation_operator(f: FrameSpec, xi: Element) -> ModulationOperator:
    """Closed form: entry (a,b) is n/m when g_b - g_a = xi (FrameSpec.pairs), else 0."""
    return ModulationOperator(xi, np.where(f.pairs() == f.group.index(xi), f.n / f.m, 0.0))


@dataclass(frozen=True)
class ModulationReport:
    definitional_deviation: float
    hs_orthogonality_deviation: float
    inversion_deviation: float
    angle_encoding_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            max(
                self.definitional_deviation,
                self.hs_orthogonality_deviation,
                self.inversion_deviation,
                self.angle_encoding_deviation,
            )
            <= self.tolerance
        )

    def as_dict(self) -> dict:
        return {
            "definitional_deviation": self.definitional_deviation,
            "hs_orthogonality_deviation": self.hs_orthogonality_deviation,
            "inversion_deviation": self.inversion_deviation,
            "angle_encoding_deviation": self.angle_encoding_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def verify_modulation_identities(f: FrameSpec) -> ModulationReport:
    """Check the three modulation-operator identities on an explicit frame, to MODULATION_TOL.

    Flattened to rows of length m^2, the closed-form operator X_xi holds n/m
    in each column c with at[c] == xi, at the generators' pair indices
    (FrameSpec.pairs) read row after row, and 0 elsewhere; X is never
    formed.  The other side of every check comes from the character
    table T and the frame vectors V = T[:, ids] / sqrt(m), with W[x, a m + b]
    = V[x, a] conj(V[x, b]) the rank-one operators f_x f_x^*.  Each
    difference is taken in place in one (n, m^2) array and, as each column
    of X has one nonzero, has the bits of a product with a dense X:
    (o)   the definitional sums sum_x chi_xi(x) f_x f_x^*, T^T W, agree with
          the closed forms entrywise: n/m comes off at (at[c], c);
    (i)   the definitional operators are pairwise Hilbert-Schmidt
          orthogonal: their Gram matrix T^T |V V^*|^2 conj(T) is diagonal;
    (ii)  Fourier inversion of the closed forms, conj(T) X / n, gives back W,
          with column c of T X the gather T[:, at[c]] n/m;
    (iii) n^2 |<f_x,f_y>|^2 from the frame Gram matrix V V^* equals
          sum_xi chi_{y-x}(xi) ||X_xi||^2_HS, the norms of the closed forms
          read from a bincount of at, y - x from the difference index table.
    """
    n, m = f.n, f.m
    if n * m * m > MODULATION_CAPACITY:
        raise CapacityError(f"modulation check needs n*m^2 <= {MODULATION_CAPACITY}")
    T = full_character_table(f.group)
    ids = np.array(f.generators) @ _radix(f.group)
    at = _pair_differences(f.group, ids).ravel()
    V = T[:, ids] / math.sqrt(m)
    W = (V[:, :, None] * V.conj()[:, None, :]).reshape(n, m * m)
    diff = T.T @ W
    diff[at, np.arange(m * m)] -= n / m
    dev_def = float(np.max(np.abs(diff)))

    # <X_xi, X_eta>_HS = sum_{x,y} chi_xi(x) |<f_x,f_y>|^2 conj(chi_eta(y))
    A = np.abs(V @ V.conj().T) ** 2
    grams = T.T @ A @ T.conj()
    np.fill_diagonal(grams, 0.0)
    dev_hs = float(np.max(np.abs(grams)))

    # Fourier inversion: f_x f_x^* = (1/n) sum_xi conj(chi_x(xi)) X_xi
    np.take(T, at, axis=1, out=diff)
    diff *= n / m
    np.conjugate(diff, out=diff)
    diff /= n
    diff -= W
    dev_inv = float(np.max(np.abs(diff)))

    hs = (n / m) ** 2 * np.bincount(at, minlength=n)  # ||X_xi||^2: (n/m)^2 per entry
    rhs = T @ hs  # rhs[z] = sum_xi chi_z(xi) ||X_xi||^2
    lhs = (n * n) * A
    dev_enc = float(np.max(np.abs(lhs - rhs.real[_difference_index_table(f.group)])))
    return ModulationReport(dev_def, dev_hs, dev_inv, dev_enc, MODULATION_TOL)


def is_real_frame(f: FrameSpec) -> bool:
    """True when every selected character takes only the values +-1: chi_g is
    real exactly when chi_g^2 = chi_{2g} is trivial, that is when 2g = 0, O(mk)."""
    return all(f.group.add(x, x) == f.group.zero for x in f.generators)


def frame_report(f: FrameSpec, tol: float = DEFAULT_ANGLE_TOL) -> dict:
    """JSON-ready report for one frame (schema version 1), from one clustering."""
    mags = angle_magnitudes(f)
    ang = _angularity(f, mags, tol)
    prof = _with_symbolic(f, ang.profile, mags)
    tight = verify_tightness(f)
    gens: list = [
        x[0] if f.group.rank == 1 else list(x) for x in f.generators
    ]
    return {
        "schema": 1,
        "group": f.group.name,
        "subset": gens,
        "n": f.n,
        "m": f.m,
        "angles": prof.as_dict()["angles"],
        "is_tight": tight.passed,
        "is_etf": ang.is_etf,
        "is_btf": ang.is_btf,
        "welch_bound": ang.welch,
        "real_frame": is_real_frame(f),
        "max_tightness_deviation": tight.max_deviation,
    }
