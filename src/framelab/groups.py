"""Finite abelian groups, their characters, subgroups and annihilators.

A group is a product of cyclic factors Z_n1 x ... x Z_nk; elements are
integer k-tuples reduced coordinatewise.  Characters are indexed by group
elements under the fixed labeling

    chi_x(y) = exp(2*pi*i * sum_j x_j*y_j / n_j),

which makes the index map a group isomorphism with chi_x(y) = chi_y(x) and
conj(chi_x(y)) = chi_{-x}(y).  Phases are kept exact as fractions of the
group exponent; complex values are derived from them.  Subgroups are one
cached membership matrix per group, found by a walk on coordinates with no
add table; the one (n, n) table holds the pair indices of the whole group.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .arith import unit_generators
from .errors import (
    CapacityError,
    DomainError,
    InvalidElementError,
    InvalidSubgroupError,
    InvariantError,
)

Element = tuple[int, ...]

SUBGROUP_ORDER_BOUND = 4096
CHARACTER_TABLE_ORDER_BOUND = 1024  # full_character_table, so search and the modulation check


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group as an ordered product of cyclic factors."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise DomainError("group needs at least one cyclic factor")
        try:
            factors = tuple(operator.index(f) for f in self.factors)
        except TypeError:
            raise DomainError(f"cyclic factors must be integers, got {self.factors}") from None
        if any(f < 2 for f in factors):
            raise DomainError(f"cyclic factors must be >= 2, got {self.factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def exponent(self) -> int:
        return lcm(*self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.factors)

    @property
    def name(self) -> str:
        return "x".join(f"Z{f}" for f in self.factors)

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic (mixed-radix) order."""
        return _elements(self)

    def index(self, x: Element) -> int:
        """Lexicographic rank of x in elements()."""
        self.validate(x)
        idx = 0
        for c, f in zip(x, self.factors):
            idx = idx * f + c
        return idx

    def element(self, idx: int) -> Element:
        coords = []
        for f in reversed(self.factors):
            idx, c = divmod(idx, f)
            coords.append(c)
        return tuple(reversed(coords))

    def validate(self, x: Element) -> None:
        if len(x) != len(self.factors) or any(
            not (0 <= c < f) for c, f in zip(x, self.factors)
        ):
            raise InvalidElementError(f"{x} is not an element of {self.name}")

    def reduce(self, x: Sequence[int]) -> Element:
        """Reduce arbitrary integer coordinates into the group."""
        if len(x) != len(self.factors):
            raise InvalidElementError(f"{tuple(x)} has wrong rank for {self.name}")
        return tuple(int(c) % f for c, f in zip(x, self.factors))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % f for a, b, f in zip(x, y, self.factors))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % f for a, f in zip(x, self.factors))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % f for a, b, f in zip(x, y, self.factors))

    def format_element(self, x: Element) -> str:
        if len(self.factors) == 1:
            return str(x[0])
        return "(" + ",".join(str(c) for c in x) + ")"


_GROUP_RE = re.compile(r"^Z(\d+)(?:xZ(\d+))*$", re.IGNORECASE)


def parse_group(text: str) -> GroupSpec:
    """Parse the Z<n1>[xZ<n2>...] grammar, e.g. 'Z8' or 'Z2xZ4'."""
    s = text.strip()
    if not _GROUP_RE.match(s):
        raise DomainError(f"cannot parse group {text!r}; expected e.g. Z8 or Z2xZ4")
    return GroupSpec(tuple(int(p[1:]) for p in s.lower().split("x")))  # the pattern ignores case


def parse_element(g: GroupSpec, text: str) -> Element:
    """Parse a bare integer (rank 1) or parenthesized tuple like (1,3)."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        parts = [p for p in s[1:-1].split(",") if p.strip() != ""]
    else:
        parts = [s]
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        msg = f"cannot parse element {text!r} of {g.name}: coordinates are integers"
        raise InvalidElementError(msg) from None
    if len(coords) != g.rank:
        raise InvalidElementError(f"{text!r} has wrong rank for {g.name}")
    x = g.reduce(coords)
    return x


def parse_subset(g: GroupSpec, text: str) -> tuple[Element, ...]:
    """Parse a subset as '0,1,3', '{0,1,3}' or '(0,0),(1,0),(0,1)'."""
    s = text.strip()
    if s.startswith("{") and s.endswith("}"):
        s = s[1:-1]
    tokens: list[str] = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            tokens.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        tokens.append(cur)
    return tuple(parse_element(g, t) for t in tokens)


@lru_cache(maxsize=None)
def _elements(g: GroupSpec) -> tuple[Element, ...]:
    return tuple(itertools.product(*[range(f) for f in g.factors]))


@lru_cache(maxsize=None)
def _coord_matrix(g: GroupSpec) -> np.ndarray:
    """(n, k) int array of element coordinates in lexicographic order."""
    return np.array(_elements(g), dtype=np.int64)


@lru_cache(maxsize=None)
def _phase_weights(g: GroupSpec) -> np.ndarray:
    """Per-coordinate weights N/n_j turning coordinate products into N-th phases."""
    N = g.exponent
    return np.array([N // f for f in g.factors], dtype=np.int64)


def _roots_of_unity(N: int) -> np.ndarray:
    """exp(2 pi i k / N) for k = 0..N-1; built afresh on every call."""
    return np.exp(2j * np.pi * np.arange(N) / N)


@lru_cache(maxsize=None)
def _root_table(g: GroupSpec) -> np.ndarray:
    return _roots_of_unity(g.exponent)


# ---------------------------------------------------------------------------
# Characters


@dataclass(frozen=True)
class CharacterValue:
    """A root of unity given by an exact phase q in [0,1); value = e^{2 pi i q}."""

    phase: Fraction

    @property
    def complex_value(self) -> complex:
        turns = 2.0 * np.pi * float(self.phase)
        return complex(np.cos(turns), np.sin(turns))

    @property
    def is_real(self) -> bool:
        return self.phase in (Fraction(0), Fraction(1, 2))


def character_phase(g: GroupSpec, x: Element, y: Element) -> Fraction:
    """Exact phase of chi_x(y) as a fraction in [0, 1)."""
    g.validate(x)
    g.validate(y)
    N = g.exponent
    k = sum(a * b * w for a, b, w in zip(x, y, _phase_weights(g))) % N
    return Fraction(int(k), N)


def character_eval(g: GroupSpec, x: Element, y: Element) -> CharacterValue:
    """Evaluate the character indexed by x at y."""
    return CharacterValue(character_phase(g, x, y))


def phase_column(g: GroupSpec, y: Element) -> np.ndarray:
    """Integer phase numerators (mod exponent) of chi_y at every element."""
    g.validate(y)
    N = g.exponent
    w = _phase_weights(g) * np.array(y, dtype=np.int64)
    return (_coord_matrix(g) @ w) % N


def _character_block(g: GroupSpec, Y: np.ndarray) -> np.ndarray:
    """(n, m) values chi_y(x) for the (m, k) coordinate rows Y, as one phase product.

    Entry [x, j] is the root of unity of phase (E . w) @ Y^T mod N, E the
    element coordinates and w the weights N / n_j: the integer phases of
    phase_column, so the values are bit for bit those of one column at a time.
    """
    phases = ((_coord_matrix(g) * _phase_weights(g)) @ Y.T) % g.exponent
    return _root_table(g)[phases]


def character_table_columns(g: GroupSpec, gens: Sequence[Element]) -> np.ndarray:
    """(n, m) array with column j = chi_{gens[j]} evaluated at every element."""
    for y in gens:
        g.validate(y)
    return _character_block(g, np.array(gens, dtype=np.int64).reshape(len(gens), g.rank))


@lru_cache(maxsize=16)
def full_character_table(g: GroupSpec) -> np.ndarray:
    """(n, n) table chi_y(x), row x, column y, as one integer phase product.

    The phases ((E . w) @ E^T) mod N index the root table, so a rebuild costs
    one (n, k) @ (k, n) integer product and one gather (tens of microseconds
    at n = 64); the cache serves search workloads that revisit one group.
    """
    if g.order > CHARACTER_TABLE_ORDER_BOUND:
        raise CapacityError(
            f"full character table capped at order {CHARACTER_TABLE_ORDER_BOUND}, got {g.order}"
        )
    return _character_block(g, _coord_matrix(g))


def character_sum_over(g: GroupSpec, z: Element, A: Iterable[Element]) -> complex:
    """Sum of chi_z over a set of elements.

    For a Subgroup argument the result is snapped to the exact value |A| or 0
    (annihilator membership is decided on exact phases) after checking that
    the floating sum agrees within 1e-9.
    """
    elems = tuple(A.elements) if isinstance(A, Subgroup) else tuple(A)
    total = complex(sum(character_eval(g, z, xi).complex_value for xi in elems))
    if isinstance(A, Subgroup):
        annihilates = all(character_phase(g, z, x) == 0 for x in elems)
        exact = complex(len(elems)) if annihilates else 0j
        if abs(total - exact) > 1e-9:
            raise InvariantError(f"subgroup character sum drifted: {total} vs {exact}")
        return exact
    return total


def full_group_sum(g: GroupSpec, x: Element) -> complex:
    """Sum of chi_x over the whole group: n at the identity index, else 0."""
    g.validate(x)
    return complex(g.order) if x == g.zero else 0j


# ---------------------------------------------------------------------------
# Subgroups


@dataclass(frozen=True)
class Subgroup:
    """A verified subgroup, elements stored sorted for determinism."""

    parent: GroupSpec
    elements: tuple[Element, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in set(self.elements)

    def as_set(self) -> frozenset[Element]:
        return frozenset(self.elements)


def is_subgroup_set(g: GroupSpec, elems: Iterable[Element]) -> bool:
    """Whether elems is a subgroup: a set is one exactly when it is as large as <elems>."""
    s = frozenset(elems)
    return subgroup_generated(g, s).order == len(s)


def make_subgroup(g: GroupSpec, elems: Iterable[Element]) -> Subgroup:
    s = frozenset(elems)
    if not is_subgroup_set(g, s):
        raise InvalidSubgroupError(f"{sorted(s)} is not a subgroup of {g.name}")
    return Subgroup(g, tuple(sorted(s)))


def subgroup_generated(g: GroupSpec, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup containing gens: from {0}, H grows to H + <x> for each x in gens.

    One coset step of _subgroup_lattice (_coset_sums) per generator outside
    H, on the element indices of H and of the multiples of x up to its
    order, so the work is O(|<gens>| log |<gens>|) whatever the group order.
    """
    H = np.zeros(1, dtype=np.int64)  # sorted element indices
    for x in gens:
        if g.index(x) in H:  # g.index validates x
            continue
        order = lcm(*(f // gcd(c, f) for c, f in zip(x, g.factors)))
        row = _multiples(g, np.array([x], dtype=np.int64), order + 1)
        # the cosets H + j x, j below the first multiple of x in H, are
        # disjoint, so the sums are distinct; np.unique would import numpy.ma
        H = np.sort(_coset_sums(g, _coords(g, H), row, np.isin(row, H))[1], axis=None)
    return Subgroup(g, tuple(map(g.element, H.tolist())))


@lru_cache(maxsize=None)
def _radix(g: GroupSpec) -> np.ndarray:
    """Mixed-radix place values: an element's index is its coordinates @ radix."""
    return np.array([prod(g.factors[j + 1 :]) for j in range(g.rank)], dtype=np.int64)


def _check_order(n: int, what: str) -> None:
    """CapacityError for an order n above SUBGROUP_ORDER_BOUND, before anything is built."""
    if n > SUBGROUP_ORDER_BOUND:
        raise CapacityError(f"{what} capped at order {SUBGROUP_ORDER_BOUND}, got {n}")


@lru_cache(maxsize=8)
def _difference_index_table(g: GroupSpec) -> np.ndarray:
    """idx[i, j] = element index of x_j - x_i, the whole group's _pair_differences:
    the one (n, n) table, int16, bounded before it is built.  Sums over it must promote."""
    _check_order(g.order, "difference index table")
    return _pair_differences(g, np.arange(g.order))


def _pair_differences(g: GroupSpec, rows: np.ndarray) -> np.ndarray:
    """(..., m, m) pair indices of a (..., m) block of element indices, [..., i, j]
    the index of s_j - s_i, from coordinates, for any order (callers keep their caps).

    int16 below order 2^15, and built in place: the first coordinate's term
    is written into the result and each further one into a single temporary,
    so a cyclic group needs none.
    """
    C = _coords(g, np.asarray(rows)).astype(np.int16 if g.order < 1 << 15 else np.int64)
    pairs = np.empty(C.shape[:-1] + C.shape[-2:-1], dtype=C.dtype)
    term = np.empty_like(pairs) if g.rank > 1 else None
    for j, (f, r) in enumerate(zip(g.factors, _radix(g).tolist())):
        out = pairs if j == 0 else term
        np.subtract(C[..., None, :, j], C[..., :, None, j], out=out)
        out %= f
        out *= r
        if j:
            pairs += term
    return pairs


@lru_cache(maxsize=None)
def _negation_indices(g: GroupSpec) -> np.ndarray:
    """Per element index, the index of its negation -x, from coordinates."""
    return ((-_coord_matrix(g)) % g.factors) @ _radix(g)


def _coords(g: GroupSpec, idx: np.ndarray) -> np.ndarray:
    """(..., k) coordinates of the elements with indices idx, the mixed radix decoded."""
    return (idx[..., None] // _radix(g)) % g.factors


def _multiples(g: GroupSpec, X: np.ndarray, count: int) -> np.ndarray:
    """(c, count) element indices of k x_c, k = 0..count-1, for the (c, rank) coordinate rows X."""
    k = np.arange(count)
    return ((k[None, :, None] * X[:, None, :]) % g.factors) @ _radix(g)


def galois_orbits(g: GroupSpec) -> np.ndarray:
    """Per element index, the smallest index in its orbit under x -> kx, k a unit mod the exponent.

    The orbit of x is the set of generators of the cyclic subgroup <x>.  The
    units are generated by arith.unit_generators; for each generator k the
    labels take their minimum along the permutation x -> kx by pointer
    doubling (a cycle has at most n elements, so n.bit_length() rounds of
    label = min(label, label[step]), step = step[step] cover it), and the
    generators one after another give the minimum over their products.
    """
    E = _coord_matrix(g)
    label = np.arange(g.order)
    for k in unit_generators(g.exponent):
        step = ((k * E) % g.factors) @ _radix(g)
        for _ in range(g.order.bit_length()):
            np.minimum(label, label[step], out=label)
            step = step[step]
    return label


def _coset_sums(
    g: GroupSpec, H: np.ndarray, multiples: np.ndarray, inside: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(owner, sums): element indices of H + <x_c>, column j of sums in H + <x_owner[j]>.

    H is given by its (|H|, k) element coordinates.  Row c of multiples holds the
    indices of k x_c, k = 0, 1, .., past the first multiple back in H, and
    inside marks the entries in H.  With k that first multiple, H + <x_c> is
    the |H| * k coordinate sums of H and the coset representatives 0, x_c,
    .., (k-1) x_c, mapped to indices by the mixed radix, for all c in one
    array step.
    """
    steps = 1 + np.argmax(inside[:, 1:], axis=1)
    take = np.arange(multiples.shape[1]) < steps[:, None]
    owner, reps = np.nonzero(take)[0], multiples[take]
    sums = ((H[:, None] + _coords(g, reps)) % g.factors) @ _radix(g)
    return owner, sums


@lru_cache(maxsize=None)
def _subgroup_lattice(g: GroupSpec) -> np.ndarray:
    """(subgroups, n) bool membership, one row per subgroup, sorted by (order, element list).

    A walk from {0} on coordinates, with no add table: row c of multiples
    holds the indices of k x_c, k = 0..N (N the exponent), for one generator
    x_c of each nontrivial cyclic subgroup, and H grows to H + <x_c>
    (_coset_sums) for every x_c outside it.
    """
    _check_order(g.order, "subgroup enumeration")
    n, E = g.order, _coord_matrix(g)
    covered = np.zeros(n, dtype=bool)  # generators of a cyclic subgroup already listed
    multiples = []
    for x in range(1, n):
        if not covered[x]:
            row = _multiples(g, E[x : x + 1], g.exponent + 1)[0]
            order = 1 + int(np.argmax(row[1:] == 0))
            covered[row[:order][np.gcd(np.arange(order), order) == 1]] = True
            multiples.append(row)
    multiples = np.array(multiples)
    trivial = np.arange(n) == 0
    seen = {trivial.tobytes()}  # rows as bytes: a row view would keep its whole block alive
    found = [trivial]
    for h in found:  # rows found on the way join the walk; the order is sorted away below
        grow = multiples[~h[multiples[:, 1]]]
        owner, sums = _coset_sums(g, E[h], grow, h[grow])
        grown = np.zeros((len(grow), n), dtype=bool)
        grown[np.broadcast_to(owner, sums.shape), sums] = True
        for key in map(np.ndarray.tobytes, grown):
            if key not in seen:
                seen.add(key)
                found.append(np.frombuffer(key, dtype=bool))
    return np.array(sorted(found, key=lambda r: (r.sum(), np.flatnonzero(r).tolist())))


@lru_cache(maxsize=None)
def all_subgroups(g: GroupSpec) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, sorted by (order, element list).

    The rows of _subgroup_lattice, a walk on coordinates with no add table;
    orders above SUBGROUP_ORDER_BOUND are a CapacityError.
    """
    els = g.elements()
    rows = (np.flatnonzero(h).tolist() for h in _subgroup_lattice(g))
    return tuple(Subgroup(g, tuple(els[i] for i in row)) for row in rows)


def annihilator(g: GroupSpec, H: Subgroup) -> Subgroup:
    """Character indices z with chi_z trivial on H; a subgroup of size n/|H|."""
    if H.parent != g or not is_subgroup_set(g, H.elements):
        raise InvalidSubgroupError("annihilator requires a verified subgroup")
    phases = np.column_stack([phase_column(g, x) for x in H.elements])
    mask = np.all(phases == 0, axis=1)
    els = g.elements()
    ann = Subgroup(g, tuple(x for x, keep in zip(els, mask) if keep))
    if ann.order * H.order != g.order:
        raise InvariantError("annihilator cardinality violated n = |Ann|*|H|")
    return ann
