"""Legendre symbols, Gauss sums, Paley and quartic constructions."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scalar_oracle

from framelab import residues as residues_module
from framelab.arith import factorize, four_square_plus, is_prime, is_prime_power, residues
from framelab.errors import CapacityError, DomainError
from framelab.groups import _difference_index_table, _root_table
from framelab.residues import (
    PRIME_BOUND,
    _quadratic_sums,
    gauss_sum,
    gauss_sum_closed_form,
    gauss_sum_table,
    half_gauss_sum,
    half_gauss_sum_closed_form,
    legendre,
    paley_pds,
    quartic_coset_decomposition,
    quartic_gaussian_ds,
    quartic_special_cases,
    quartic_symbol,
    residue_class,
)

PRIMES_TO_97 = [p for p in range(3, 98) if is_prime(p)]


def test_legendre_examples():
    assert legendre(2, 7) == 1  # 2 = 3^2 mod 7
    assert legendre(1, 31) == 1
    assert legendre(2, 13) == -1  # 13 = 5 mod 8
    with pytest.raises(DomainError):
        legendre(26, 13)
    with pytest.raises(DomainError):
        legendre(3, 9)


def test_legendre_multiplicativity():
    for p in PRIMES_TO_97:
        for a in range(1, p):
            for b in range(1, p, max(1, p // 7)):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_two_is_square_iff_p_pm1_mod8():
    for p in PRIMES_TO_97:
        assert (legendre(2, p) == 1) == (p % 8 in (1, 7))


def test_residue_class_sizes():
    rc = residue_class(13, 2)
    assert rc.size == 6 and rc.elements == (1, 3, 4, 9, 10, 12)
    rc4 = residue_class(13, 4)
    assert rc4.elements == (1, 3, 9)
    for p in (13, 17, 29):
        assert residue_class(p, 2).size == (p - 1) // 2
        assert residue_class(p, 4).size == (p - 1) // 4
    with pytest.raises(DomainError):
        residue_class(7, 4)


def test_residues_closed_under_multiplication():
    for p, s in [(13, 2), (13, 4), (29, 4)]:
        rs = set(residues(p, s))
        for a in rs:
            for b in rs:
                assert (a * b) % p in rs


def test_quartic_symbol():
    assert quartic_symbol(3, 13) == 1  # 3 in {1,3,9}
    assert quartic_symbol(1, 13) == 1
    assert quartic_symbol(4, 13) == -1  # 4 is a square but not a fourth power
    with pytest.raises(DomainError):
        quartic_symbol(2, 13)  # 2 is a nonsquare mod 13
    with pytest.raises(DomainError):
        quartic_symbol(2, 7)  # p = 3 mod 4


def test_gauss_sum_examples():
    assert gauss_sum(1, 13) == pytest.approx(math.sqrt(13), abs=1e-9)
    assert gauss_sum(1, 7) == pytest.approx(1j * math.sqrt(7), abs=1e-9)
    assert gauss_sum(2, 13) == pytest.approx(-math.sqrt(13), abs=1e-9)


def test_gauss_sums_closed_form_all_primes():
    for p in PRIMES_TO_97:
        for a in range(1, p):
            assert abs(gauss_sum(a, p) - gauss_sum_closed_form(a, p)) <= 1e-9


def test_half_gauss_sum_four_cases():
    assert half_gauss_sum(1, 13) == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-9)
    assert half_gauss_sum(2, 13) == pytest.approx((1 - math.sqrt(13)) / 2, abs=1e-9)
    assert half_gauss_sum(1, 7) == pytest.approx((1 + math.sqrt(7) * 1j) / 2, abs=1e-9)
    assert half_gauss_sum(3, 7) == pytest.approx((1 - math.sqrt(7) * 1j) / 2, abs=1e-9)
    for p in (11, 17, 23, 29):
        for a in range(1, p):
            assert abs(half_gauss_sum(a, p) - half_gauss_sum_closed_form(a, p)) <= 1e-9


def test_paley_pds():
    S, cls = paley_pds(7)
    assert S == ((1,), (2,), (4,))
    assert cls.difference_set_lambda == 1
    _, cls13 = paley_pds(13)
    assert (cls13.partial.lam, cls13.partial.mu) == (2, 3)
    _, cls17 = paley_pds(17)
    assert (cls17.partial.lam, cls17.partial.mu) == (3, 4)


def test_quartic_coset_decomposition():
    cosets = quartic_coset_decomposition(13)
    assert cosets[0] == (1, 3, 9)
    assert cosets[1] == (2, 5, 6)
    assert cosets[2] == (4, 10, 12)
    assert cosets[3] == (7, 8, 11)
    for p in (13, 29, 37):
        cs = quartic_coset_decomposition(p)
        flat = [x for c in cs for x in c]
        assert sorted(flat) == list(range(1, p))
        assert all(len(c) == (p - 1) // 4 for c in cs)


def test_quartic_gaussian_ds_values():
    S, (lam, mu) = quartic_gaussian_ds(13)
    assert S == ((1,), (3,), (9,))
    assert (lam, mu) == (0, 1)
    S0, (lam0, mu0) = quartic_gaussian_ds(13, with_zero=True)
    assert S0 == ((0,), (1,), (3,), (9,))
    assert (lam0, mu0) == (1, 1)  # a (13, 4, 1) difference set
    _, (l29, m29) = quartic_gaussian_ds(29)
    assert l29 + m29 == 3
    with pytest.raises(DomainError):
        quartic_gaussian_ds(17)  # 17 = 1 mod 8


def test_quartic_membership_steps():
    for p in (13, 29, 37, 53, 61):
        cosets = quartic_coset_decomposition(p)
        assert (p - 1) in cosets[2]  # -1 in 4 R4
        assert (p - 2) in cosets[3]  # -2 in 8 R4


def test_difference_pair_counts_constant_on_cosets():
    # |{(x,y): x^4 - y^4 = a}| depends only on the coset of a
    for p in (13, 29, 37, 53, 61):
        counts = {}
        for x in range(1, p):
            for y in range(1, p):
                a = (pow(x, 4, p) - pow(y, 4, p)) % p
                if a:
                    counts[a] = counts.get(a, 0) + 1
        for coset in quartic_coset_decomposition(p):
            assert len({counts.get(a, 0) for a in coset}) == 1


def test_quartic_special_cases():
    rep = quartic_special_cases(37)
    assert rep.conditions["p=4a^2+1, a odd"]
    assert rep.verified
    assert any(
        i["class"] == "difference_set" and i["params"] == [37, 9, 2]
        for i in rep.implications
    )
    rep13 = quartic_special_cases(13)
    assert rep13.conditions["p=4a^2+9, a odd"]
    assert any(
        i["class"] == "difference_set" and i["params"] == [13, 4, 1]
        for i in rep13.implications
    )
    rep29 = quartic_special_cases(29)
    assert any(
        i["class"] == "almost" and i["params"] == [29, 7, 1, 14]
        for i in rep29.implications
    )
    assert rep29.verified


def test_gauss_sum_magnitude_is_sqrt_p():
    for p in (7, 13, 29, 53):
        for a in (1, 2, 3):
            assert abs(gauss_sum(a, p)) == pytest.approx(math.sqrt(p), abs=1e-9)


def test_factorize_against_trial_products():
    for n in range(1, 5000):
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        assert [p for p, _ in f] == sorted({p for p, _ in f})
        assert all(is_prime(p) and e >= 1 for p, e in f)
        assert is_prime_power(n) == (len(f) == 1)


def test_four_square_plus_against_brute_force():
    # the p = 4a^2 + c representations behind the quartic special cases and
    # the quartic family predictor
    for p in range(5, 1000, 4):
        if not is_prime(p):
            continue
        for c in (1, 9, 25, 49):
            want = next((a for a in range(p) if 4 * a * a + c == p), None)
            assert four_square_plus(p, c) == want, (p, c)


def test_quadratic_sums_match_scalar_oracle_bit_for_bit():
    # the kernel gathers the same roots exp(2 pi i k / p) the scalar loop
    # computed and sums each row in the same pairwise order
    for p in PRIMES_TO_97:
        a = np.arange(1, p, dtype=np.int64)
        full = _quadratic_sums(a, p, half=False)
        half = _quadratic_sums(a, p, half=True)
        for i, ai in enumerate(range(1, p)):
            want_full = scalar_oracle.oracle_gauss_sum(ai, p)
            want_half = scalar_oracle.oracle_half_gauss_sum(ai, p)
            assert complex(full[i]) == want_full == gauss_sum(ai, p), (ai, p)
            assert complex(half[i]) == want_half == half_gauss_sum(ai, p), (ai, p)


def test_quadratic_sums_in_row_blocks_match_scalar_oracle():
    # 256 rows of 257 entries exceed PRIME_BOUND: the kernel takes two blocks
    p = 257
    assert (p - 1) * p > PRIME_BOUND
    a = np.arange(1, p, dtype=np.int64)
    for half, oracle in ((False, scalar_oracle.oracle_gauss_sum),
                         (True, scalar_oracle.oracle_half_gauss_sum)):
        got = _quadratic_sums(a, p, half)
        assert [complex(v) for v in got] == [oracle(ai, p) for ai in range(1, p)]


def test_quadratic_sums_memory_is_bounded_by_the_block():
    # 16 copies of every a: one unblocked table would hold 4096 * 257 entries
    # (about 33 MB of index, product and complex temporaries)
    p = 257
    a = np.tile(np.arange(1, p, dtype=np.int64), 16)
    tracemalloc.start()
    try:
        got = _quadratic_sums(a, p, half=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, np.tile(got[: p - 1], 16))
    assert peak < 4 * 1024 * 1024


def test_gauss_sum_table_matches_scalar_oracle_bit_for_bit():
    # both sides for every a of a prime: the kernel row and the closed forms
    # signed by legendre, each equal to the scalar loop it replaced
    cases = (
        (False, scalar_oracle.oracle_gauss_sum, scalar_oracle.oracle_gauss_sum_closed_form,
         gauss_sum_closed_form),
        (True, scalar_oracle.oracle_half_gauss_sum,
         scalar_oracle.oracle_half_gauss_sum_closed_form, half_gauss_sum_closed_form),
    )
    for p in PRIMES_TO_97:
        for half, oracle_sum, oracle_closed, closed_form in cases:
            numeric, closed = gauss_sum_table(p, half)
            assert [complex(v) for v in numeric] == [oracle_sum(a, p) for a in range(1, p)]
            want = [oracle_closed(a, p) for a in range(1, p)]
            assert [complex(v) for v in closed] == want, (p, half)
            assert want == [closed_form(a, p) for a in range(1, p)], (p, half)


def _no_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("an O(p) table was built past the capacity check")

    monkeypatch.setattr(residues_module, "residues", refuse)
    monkeypatch.setattr(residues_module, "_roots_of_unity", refuse)


def test_prime_above_the_bound_is_a_capacity_error_before_any_table(monkeypatch):
    q = next(q for q in itertools.count(PRIME_BOUND + 1) if is_prime(q))
    _no_tables(monkeypatch)
    for call in (gauss_sum, half_gauss_sum):
        with pytest.raises(CapacityError):
            call(1, q)
    with pytest.raises(CapacityError):
        gauss_sum_table(q)
    for s in (2, 4):
        with pytest.raises(CapacityError):
            residue_class(q, s)
    # the closed forms and symbols need no table
    assert abs(gauss_sum_closed_form(1, q)) == pytest.approx(math.sqrt(q))
    assert legendre(1, q) == 1


def test_largest_prime_under_the_bound_still_sums():
    p = next(p for p in range(PRIME_BOUND, 2, -1) if is_prime(p))
    cached = _root_table.cache_info().currsize
    assert abs(gauss_sum(3, p) - gauss_sum_closed_form(3, p)) <= 1e-9
    # the roots of unity are built per call: no table of size p is kept
    assert _root_table.cache_info().currsize == cached


@pytest.mark.parametrize("p", [0, 1, 2, 9, -7])
def test_quadratic_sums_need_an_odd_prime(p):
    # p = 0 used to reach a % p; p = 1 used to report a multiple of p
    for call in (gauss_sum, half_gauss_sum):
        with pytest.raises(DomainError, match="not an odd prime"):
            call(1, p)
    with pytest.raises(DomainError, match="not an odd prime"):
        gauss_sum_table(p)


def test_paley_capped_before_any_table():
    # 4099 is a prime above groups.SUBGROUP_ORDER_BOUND = 4096: the difference
    # counts check refuses it before anything of size n is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            paley_pds(4099)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024


@pytest.mark.parametrize(
    "fn, message",
    [
        (paley_pds, "difference counts capped at order 4096"),
        (quartic_gaussian_ds, "difference counts capped at order 4096"),
        (quartic_special_cases, "difference counts capped at order 4096"),
        (quartic_coset_decomposition, "residue tables capped at p <= 65536"),
    ],
)
def test_bound_checked_before_any_residue_set(fn, message):
    # a prime far above both bounds is refused before a residue set of size p
    # is built (building it first took paley_pds over a second)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=message):
            fn(1_000_003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_residue_sets_are_not_kept():
    primes = [p for p in range(65_000, 65_536) if is_prime(p)][:4]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sizes = [residue_class(p, 2).size for p in primes]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sizes == [(p - 1) // 2 for p in primes]
    assert kept < 1024 * 1024


def test_quartic_conditions_match_the_two_old_copies(capsys, monkeypatch):
    # predict quartic (with and without zero) and gauss special print the same
    # JSON as the two functions that each computed the conditions themselves
    from framelab import cli

    def outputs():
        got = []
        for p in primes:
            for argv in (["predict", "quartic", "-p", str(p)],
                         ["predict", "quartic", "-p", str(p), "--zero-in-s"],
                         ["gauss", "special", str(p)]):
                code = cli.main(argv)
                out = capsys.readouterr()
                got.append((code, out.out, out.err))
        return got

    primes = [p for p in range(5, 2000) if p % 4 == 1 and is_prime(p)]
    try:
        new = outputs()
        monkeypatch.setattr(cli, "quartic_family_angles", scalar_oracle.oracle_quartic_family_angles)
        monkeypatch.setattr(cli, "quartic_special_cases", scalar_oracle.oracle_quartic_special_cases)
        assert outputs() == new
    finally:
        _difference_index_table.cache_clear()  # up to 8 int16 tables of 8 MB at p near 2000
    assert sum('"applicable": false' not in out for _, out, _ in new[::3]) > 0
    assert sum(code == 0 for code, _, _ in new) == len(new) - 1  # gauss special 5: m = 1
