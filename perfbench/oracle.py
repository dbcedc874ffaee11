"""Reference computations for the benchmark's correctness gates.

Nothing here calls framelab.  Frames are built from explicit character
values, angles come from the full Gram matrix |V V^H|, difference counts
from explicit subtraction, and the search references are vectorized NumPy
recomputations of the same taxonomy rules.  The gates compare library
output against these values, so a wrong library answer cannot also be the
reference.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator

import numpy as np

ANGLE_TOL = 1e-7  # clustering gap, the library's default angle tolerance
VALUE_TOL = 1e-9  # agreement required between a reported angle and the oracle


def group_name(factors: tuple[int, ...]) -> str:
    return "x".join(f"Z{f}" for f in factors)


def elements(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All elements in lexicographic (mixed-radix) order."""
    return list(itertools.product(*[range(f) for f in factors]))


def _phase_matrix(factors: tuple[int, ...], xs, gs) -> np.ndarray:
    """exp(2 pi i sum_j x_j g_j / n_j) for every x in xs (rows), g in gs (cols)."""
    X = np.array(xs, dtype=np.float64).reshape(len(xs), len(factors))
    G = np.array(gs, dtype=np.float64).reshape(len(gs), len(factors))
    turns = (X / np.array(factors, dtype=np.float64)) @ G.T
    return np.exp(2j * np.pi * turns)


def _cluster(values: np.ndarray, tol: float = ANGLE_TOL) -> tuple[list[float], list[int]]:
    """Chain-cluster sorted values at gap <= tol into (means, sizes)."""
    v = np.sort(values)
    cuts = np.flatnonzero(np.diff(v) > tol) + 1
    blocks = np.split(v, cuts)
    return [float(b.mean()) for b in blocks], [len(b) for b in blocks]


def gram_angles(factors: tuple[int, ...], subset) -> tuple[list[float], list[int]]:
    """Distinct off-diagonal |<f_x, f_y>| over all n(n-1) ordered pairs.

    Multiplicities are per frame vector (pair counts divided by n), which is
    how the library reports them.
    """
    V = _phase_matrix(factors, elements(factors), subset) / math.sqrt(len(subset))
    A = np.abs(V @ V.conj().T)
    n = A.shape[0]
    reps, sizes = _cluster(A[~np.eye(n, dtype=bool)])
    if any(s % n for s in sizes):
        raise ValueError(f"angle multiplicities not divisible by n={n}: {sizes}")
    return reps, [s // n for s in sizes]


def difference_levels(factors: tuple[int, ...], subset) -> dict[int, int]:
    """count value -> number of nonzero elements hit that many times."""
    counts = {x: 0 for x in elements(factors)[1:]}
    for a in subset:
        for b in subset:
            if a != b:
                counts[tuple((p - q) % f for p, q, f in zip(a, b, factors))] += 1
    levels: dict[int, int] = {}
    for c in counts.values():
        levels[c] = levels.get(c, 0) + 1
    return levels


def welch(n: int, m: int) -> float:
    return math.sqrt((n - m) / (m * (n - 1)))


# ---------------------------------------------------------------------------
# Exact-form strings


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def eval_surd(text: str) -> float:
    """Evaluate an exact angle string such as 'sqrt(7/72 - sqrt(13)/72)'.

    Only numbers, + - * /, unary minus and sqrt(...) are accepted; anything
    else raises ValueError, so a malformed string fails its gate.
    """

    def ev(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt"
            and len(node.args) == 1
            and not node.keywords
        ):
            return math.sqrt(ev(node.args[0]))
        raise ValueError(f"unexpected syntax in exact form {text!r}")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"unparsable exact form {text!r}") from exc
    return float(ev(tree))


# ---------------------------------------------------------------------------
# Structured generator sets


def power_residues(p: int, s: int) -> list[int]:
    """Nonzero s-th powers mod p."""
    return sorted({pow(z, s, p) for z in range(1, p)})


# ---------------------------------------------------------------------------
# Whole-search references


def _all_subsets(n: int, m: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)


def _difference_table(factors: tuple[int, ...]) -> np.ndarray:
    """D[i, j] = element index of x_i - x_j."""
    E = np.array(elements(factors), dtype=np.int64)
    radix = np.array(
        [math.prod(factors[j + 1:]) for j in range(len(factors))], dtype=np.int64
    )
    diff = (E[:, None, :] - E[None, :, :]) % np.array(factors, dtype=np.int64)
    return diff @ radix


def _batch_counts(factors: tuple[int, ...], S: np.ndarray) -> np.ndarray:
    """(B, n) difference counts of every subset row of element indices."""
    D = _difference_table(factors)
    n = math.prod(factors)
    B, m = S.shape
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    idx = np.stack([D[S[:, a], S[:, b]] for a, b in pairs], axis=1)
    flat = idx + n * np.arange(B)[:, None]
    return np.bincount(flat.ravel(), minlength=B * n).reshape(B, n)


def _batch_magnitudes(factors: tuple[int, ...], S: np.ndarray) -> np.ndarray:
    """(B, n-1) values |<f_x, f_0>| for x != 0, each row one subset."""
    els = elements(factors)
    T = _phase_matrix(factors, els, els)  # T[x, g] = chi_g(x)
    sums = T.T[S].sum(axis=1)  # (B, n): sum over g in S of chi_g(x)
    return np.abs(sums[:, 1:]) / S.shape[1]


def _constant_on(C: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(constant?, value) of each row of C restricted to the columns in mask."""
    big = np.iinfo(np.int64).max
    hi = np.where(mask, C, -1).max(axis=1)
    lo = np.where(mask, C, big).min(axis=1)
    return hi == lo, hi


def search_class_counts_z21(m: int) -> dict[str, int]:
    """class_counts of the unfiltered Z21 search for m-subsets, recomputed from scratch.

    Z21's proper nontrivial subgroups are <7> (order 3) and <3> (order 7);
    neither contains the other, so every subgroup chain has length <= 2.
    """
    n = 21
    S = _all_subsets(n, m)
    C = _batch_counts((n,), S)[:, 1:]  # counts at x = 1..20
    srt = np.sort(C, axis=1)
    nlev = 1 + (np.diff(srt, axis=1) != 0).sum(axis=1)
    lo, hi = srt[:, 0], srt[:, -1]
    cols = np.arange(1, n)
    diff_set = nlev == 1
    two = nlev == 2
    splits = []  # (split holds with distinct values, lam on H)
    for step in (7, 3):
        inside = (cols % step) == 0
        ok_in, v_in = _constant_on(C, np.broadcast_to(inside, C.shape))
        ok_out, v_out = _constant_on(C, np.broadcast_to(~inside, C.shape))
        splits.append((ok_in & ok_out & (v_in != v_out), v_in))
    sub_witness = two & (splits[0][0] | splits[1][0])
    # the library tries the witness {0} + (lower level) first
    lam_low_first = np.where(
        splits[0][0] & (splits[0][1] == lo),
        lo,
        np.where(splits[1][0] & (splits[1][1] == lo), lo, hi),
    )
    divisible = diff_set | sub_witness
    relative = sub_witness & (lam_low_first == 0)

    member = np.zeros((len(S), n), dtype=bool)
    member[np.arange(len(S))[:, None], S] = True
    member[:, 0] = True
    ok_in, _ = _constant_on(C, member[:, 1:])
    ok_out, _ = _constant_on(C, ~member[:, 1:])
    partial = ok_in & ok_out

    almost = two & (hi == lo + 1)
    nested = diff_set | sub_witness

    mags = np.sort(_batch_magnitudes((n,), S), axis=1)
    nang = 1 + (np.diff(mags, axis=1) > ANGLE_TOL).sum(axis=1)
    etf = (nang == 1) & (np.abs(mags.mean(axis=1) - welch(n, m)) <= ANGLE_TOL)
    tight = np.abs((mags**2).sum(axis=1) - (n - m) / m) <= 1e-8
    btf = (nang == 2) & tight

    counts = {
        "difference_set": diff_set, "bidifference": nlev <= 2, "divisible": divisible,
        "relative": relative, "partial": partial, "almost": almost,
        "nested_divisible": nested, "etf": etf, "btf": btf,
    }
    return {k: int(v.sum()) for k, v in counts.items() if v.any()}


def angle_match_counts(
    factors: tuple[int, ...], m: int, target: tuple[float, ...], containing_zero: bool = False
) -> tuple[int, int, int]:
    """(subsets, matches, bidifference matches) for one group and angle set.

    With `containing_zero`, only the m-subsets that contain the zero element.
    """
    n = math.prod(factors)
    S = _all_subsets(n, m)
    if containing_zero:
        S = S[S[:, 0] == 0]  # element 0 is the zero; rows are sorted
    mags = np.sort(_batch_magnitudes(factors, S), axis=1)
    t = np.sort(np.array(target, dtype=np.float64))
    nang = 1 + (np.diff(mags, axis=1) > ANGLE_TOL).sum(axis=1)
    near = np.abs(mags[:, :, None] - t[None, None, :]) <= ANGLE_TOL
    match = (nang == len(t)) & near.any(axis=2).all(axis=1) & near.any(axis=1).all(axis=1)
    C = np.sort(_batch_counts(factors, S[match])[:, 1:], axis=1)
    nlev = 1 + (np.diff(C, axis=1) != 0).sum(axis=1)
    return len(S), int(match.sum()), int((nlev <= 2).sum())
