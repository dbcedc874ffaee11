"""Harmonic frames: construction, angle profiles, tightness and modulation diagnostics.

A generator subset S = {g_1, ..., g_m} of a group of order n defines the n
unit vectors f_x = (1/sqrt(m)) (chi_{g_j}(x))_j.  Everything observable about
the frame reduces to character sums: <f_x, f_y> = (1/m) sum_j chi_{g_j}(x-y),
so angle profiles need only the n-1 sums against the identity index, and the
frame is materialized as an explicit array only for the verification paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import surd
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
    _difference_index_table,
    character_phase,
    character_table_columns,
    full_character_table,
)

DEFAULT_ANGLE_TOL = 1e-7
MODULATION_CAPACITY = 4_000_000  # bound on n * m^2


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


def frame_inner_product(f: FrameSpec, x: Element, y: Element) -> complex:
    """<f_x, f_y> = (1/m) sum_j chi_{g_j}(x - y)."""
    z = f.group.sub(x, y)
    total = sum(
        np.exp(2j * np.pi * float(character_phase(f.group, g, z)))
        for g in f.generators
    )
    return complex(total) / f.m


def welch_bound(n: int, m: int) -> float:
    """Lower bound sqrt((n-m)/(m(n-1))) on the maximal pairwise magnitude."""
    if n < 2:
        raise DomainError(f"Welch bound needs n >= 2, got n={n}")
    if not 1 <= m <= n:
        raise DomainError(f"Welch bound needs 1 <= m <= n, got m={m}, n={n}")
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
    its mean, taken as sum / size over all clusters of one size at once:
    the same pairwise sum over the same contiguous values as ndarray.mean,
    so the bits match a one-cluster-at-a-time loop.
    """
    order = np.sort(values, axis=1)
    rows, width = order.shape
    gaps = order[:, 1:] - order[:, :-1]
    first = np.ones((rows, width), dtype=bool)  # where a cluster begins
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


def angle_magnitudes(f: FrameSpec) -> np.ndarray:
    """|<f_x, f_0>| for every x != 0, exploiting shift invariance."""
    cols = character_table_columns(f.group, f.generators)
    sums = cols.sum(axis=1)
    mags = np.abs(sums) / f.m
    return np.delete(mags, f.group.index(f.group.zero))


def angle_profile(
    f: FrameSpec, tol: float = DEFAULT_ANGLE_TOL, symbolic: bool = False
) -> AngleProfile:
    """Cluster the n-1 identity-row magnitudes into the frame's angle set."""
    prof = cluster_rows(angle_magnitudes(f)[None, :], tol).profile(0)
    sym: tuple[str | None, ...] = ()
    if symbolic:
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


def verify_tightness(f: FrameSpec, tol: float = 1e-9) -> TightnessReport:
    """Check sum_x f_x (x) f_x^* = (n/m) I entrywise; deviations are reported, never thrown."""
    V = f.vectors()
    S = V.T @ V.conj()
    target = (f.n / f.m) * np.eye(f.m)
    dev = float(np.max(np.abs(S - target)))
    return TightnessReport(f.n / f.m, dev, dev <= tol)


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
    c = cluster_rows(angle_magnitudes(f)[None, :], tol)
    is_etf, is_btf = etf_btf(f.n, f.m, c)
    prof = c.profile(0)
    return AngularityReport(prof.d, bool(is_etf[0]), bool(is_btf[0]), welch_bound(f.n, f.m), prof)


def btf_multiplicities_from_angles(
    n: int, m: int, alpha1: float, alpha2: float, tol: float = 1e-6
) -> tuple[int, int]:
    """Multiplicities forced by the tight-sum identity for a two-angle frame."""
    if not 0 <= alpha1 <= 1 or not 0 <= alpha2 <= 1:
        raise InvalidParametersError("angles must lie in [0, 1]")
    if alpha1 == alpha2:
        raise InvalidParametersError("angles must be distinct")
    w2 = (n - m) / (m * (n - 1))
    t1 = (n - 1) / (alpha2**2 - alpha1**2) * (alpha2**2 - w2)
    t2 = (n - 1) - t1
    r1, r2 = round(t1), round(t2)
    if abs(t1 - r1) > tol or abs(t2 - r2) > tol or r1 < 0 or r2 < 0:
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
    """Closed form: entry (a,b) is n/m when g_b - g_a = xi, else 0."""
    f.group.validate(xi)
    m, n = f.m, f.n
    entries = np.zeros((m, m), dtype=complex)
    for a, ga in enumerate(f.generators):
        for b, gb in enumerate(f.generators):
            if f.group.sub(gb, ga) == xi:
                entries[a, b] = n / m
    return ModulationOperator(xi, entries)


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


def verify_modulation_identities(f: FrameSpec, tol: float = 1e-8) -> ModulationReport:
    """Check the three modulation-operator identities on an explicit frame.

    (i)  pairwise Hilbert-Schmidt orthogonality of the operators,
    (ii) Fourier inversion back to the rank-one projections,
    (iii) n^2 |<f_x,f_y>|^2 = sum_xi chi_{y-x}(xi) ||X_xi||^2_HS,
    plus agreement of the definitional sums with the closed-form entries.
    """
    n, m = f.n, f.m
    if n * m * m > MODULATION_CAPACITY:
        raise CapacityError(f"modulation check needs n*m^2 <= {MODULATION_CAPACITY}")
    V = f.vectors()
    T = full_character_table(f.group)
    # definitional operators, all xi at once: D[z,a,b] = sum_x T[x,z] V[x,a] conj(V[x,b])
    D = np.einsum("xz,xa,xb->zab", T, V, V.conj(), optimize=True)
    closed = np.stack(
        [modulation_operator(f, xi).entries for xi in f.group.elements()]
    )
    dev_def = float(np.max(np.abs(D - closed)))

    flat = closed.reshape(n, m * m)
    grams = flat @ flat.conj().T
    dev_hs = float(np.max(np.abs(grams - np.diag(np.diag(grams)))))

    # Fourier inversion: f_x f_x^* = (1/n) sum_xi conj(chi_x(xi)) X_xi
    recon = np.einsum("xz,zab->xab", T.conj(), closed, optimize=True) / n
    outer = np.einsum("xa,xb->xab", V, V.conj(), optimize=True)
    dev_inv = float(np.max(np.abs(recon - outer)))

    hs = np.einsum("zab,zab->z", closed, closed.conj(), optimize=True).real
    rhs = T @ hs  # rhs[z] = sum_xi chi_z(xi) ||X_xi||^2
    G = V @ V.conj().T
    lhs = (n * n) * np.abs(G) ** 2
    idx = _difference_index_table(f.group)
    dev_enc = float(np.max(np.abs(lhs - rhs.real[idx])))
    return ModulationReport(dev_def, dev_hs, dev_inv, dev_enc, tol)


def is_real_frame(f: FrameSpec) -> bool:
    """True when every selected character takes only the values +-1 (exact phases)."""
    half = Fraction(1, 2)
    return all(
        character_phase(f.group, g, x) in (0, half)
        for g in f.generators
        for x in f.group.elements()
    )


def frame_report(f: FrameSpec, tol: float = DEFAULT_ANGLE_TOL) -> dict:
    """JSON-ready report for one frame (schema version 1)."""
    prof = angle_profile(f, tol, symbolic=True)
    ang = classify_angularity(f, tol)
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
