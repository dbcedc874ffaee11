"""Group arithmetic, characters, subgroups, annihilators."""

import itertools
import os
import subprocess
import sys
import timeit
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scalar_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab
from framelab.errors import CapacityError, DomainError, InvalidElementError, InvalidSubgroupError
from framelab.groups import (
    GroupSpec,
    Subgroup,
    _difference_index_table,
    all_subgroups,
    annihilator,
    character_eval,
    character_phase,
    character_sum_over,
    full_character_table,
    full_group_sum,
    is_subgroup_set,
    make_subgroup,
    parse_element,
    parse_group,
    parse_subset,
    subgroup_generated,
)
from framelab.search import abelian_groups_of_order

Z6 = GroupSpec((6,))
Z7 = GroupSpec((7,))
Z8 = GroupSpec((8,))
Z2Z4 = GroupSpec((2, 4))


def test_parse_group_grammar():
    assert parse_group("Z8").factors == (8,)
    assert parse_group("Z2xZ4").factors == (2, 4)
    assert parse_group("Z2xZ2xZ2").factors == (2, 2, 2)
    # the grammar ignores case, the separator included
    assert parse_group("Z2XZ4").factors == parse_group("z2XZ4").factors == (2, 4)
    with pytest.raises(DomainError):
        parse_group("S3")
    with pytest.raises(DomainError):
        parse_group("Z1")


def test_group_factors_must_be_integers():
    # a float factor is refused, not truncated, and a string is a DomainError too
    for factors in ((2.5,), ("a",), (4, 2.0)):
        with pytest.raises(DomainError, match="integers"):
            GroupSpec(factors)
    assert GroupSpec((np.int64(4), 2)).factors == (4, 2)


def test_parse_elements_and_subsets():
    assert parse_element(Z8, "5") == (5,)
    assert parse_element(Z2Z4, "(1,3)") == (1, 3)
    assert parse_subset(Z6, "0,1,3") == ((0,), (1,), (3,))
    assert parse_subset(Z6, "{0,1,3}") == ((0,), (1,), (3,))
    assert parse_subset(Z2Z4, "(0,0),(1,0),(0,1)") == ((0, 0), (1, 0), (0, 1))
    with pytest.raises(InvalidElementError):
        parse_element(Z2Z4, "3")
    with pytest.raises(InvalidElementError, match="coordinates are integers"):
        parse_element(Z8, "a")
    with pytest.raises(InvalidElementError, match="coordinates are integers"):
        parse_subset(Z2Z4, "(0,0),(1,1.5)")


def test_group_basics():
    assert Z2Z4.order == 8
    assert Z2Z4.exponent == 4
    els = Z2Z4.elements()
    assert len(set(els)) == 8
    for i, x in enumerate(els):
        assert Z2Z4.index(x) == i
        assert Z2Z4.element(i) == x
    x = (1, 3)
    assert Z2Z4.add(x, Z2Z4.neg(x)) == Z2Z4.zero


def test_character_examples():
    # trivial character
    assert character_eval(Z2Z4, (0, 0), (1, 3)).complex_value == pytest.approx(1)
    # exponent sum 0/2 + 1/4 -> i
    v = character_eval(Z2Z4, (1, 1), (0, 1))
    assert v.phase == Fraction(1, 4)
    assert v.complex_value == pytest.approx(1j)
    # 3*5 = 15 = 1 mod 7
    assert character_phase(Z7, (3,), (5,)) == Fraction(1, 7)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Z6, Z7, Z8, Z2Z4, GroupSpec((2, 2, 3))]), st.data())
def test_character_symmetry_and_conjugation(g, data):
    els = g.elements()
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    assert character_phase(g, x, y) == character_phase(g, y, x)
    # conjugation: phase of conj is the negation mod 1
    ph = character_phase(g, x, y)
    assert character_phase(g, g.neg(x), y) == (-ph) % 1
    assert character_phase(g, x, g.neg(y)) == (-ph) % 1


def test_phase_denominator_divides_exponent():
    for g in (Z6, Z2Z4, GroupSpec((4, 6))):
        N = g.exponent
        for x in g.elements():
            for y in g.elements():
                assert N % character_phase(g, x, y).denominator == 0


def test_character_sum_over_subgroup_snaps_exactly():
    H = make_subgroup(Z6, [(0,), (3,)])
    assert character_sum_over(Z6, (2,), H) == 2
    assert character_sum_over(Z6, (4,), H) == 2
    for z in ((1,), (3,), (5,)):
        assert character_sum_over(Z6, z, H) == 0


def test_character_sum_over_plain_set():
    # the Z9 two-level set sums against A = {0,1,3,6,8}
    g = GroupSpec((9,))
    A = [(0,), (1,), (3,), (6,), (8,)]
    v = character_sum_over(g, (3,), A)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_full_group_sum():
    assert full_group_sum(Z7, (0,)) == 7
    assert full_group_sum(Z7, (3,)) == 0
    assert full_group_sum(Z2Z4, (1, 2)) == 0


def test_subgroup_generated():
    assert subgroup_generated(Z8, [(2,)]).elements == ((0,), (2,), (4,), (6,))
    assert subgroup_generated(Z2Z4, [(1, 0)]).elements == ((0, 0), (1, 0))
    assert subgroup_generated(Z7, [(3,)]).order == 7


def test_subgroup_generated_matches_closure_oracle():
    # every element and every ordered pair of elements as generators
    for n in range(2, 17):
        for g in abelian_groups_of_order(n):
            els = g.elements()
            for gens in itertools.chain(((x,) for x in els), itertools.product(els, repeat=2)):
                want = scalar_oracle.oracle_subgroup_generated(g, gens)
                assert subgroup_generated(g, gens) == want, (g, gens)


def test_subgroup_generated_is_linear_in_the_subgroup():
    # the closure it replaced took about a second for <1> in Z1024
    g = GroupSpec((2048,))
    best = min(timeit.repeat(lambda: subgroup_generated(g, [(1,)]), number=1, repeat=3))
    assert subgroup_generated(g, [(1,)]).order == 2048
    assert best < 0.05
    # and a small subgroup of a large group costs nothing of the group's size
    g = GroupSpec((2**20,))
    tracemalloc.start()
    try:
        H = subgroup_generated(g, [(2**19,)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.elements == ((0,), (2**19,))
    assert peak < 64 * 1024


def test_subgroup_generated_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, about 0.6 MB resident
    code = (
        "import sys\n"
        "from framelab.groups import GroupSpec, subgroup_generated\n"
        "subgroup_generated(GroupSpec((12,)), [(4,)])\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(framelab.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_is_subgroup_set_on_every_subset():
    for n in range(2, 9):
        for g in abelian_groups_of_order(n):
            subgroups = brute_force_subgroups(g)
            els = g.elements()
            for r in range(len(els) + 1):
                for c in itertools.combinations(els, r):
                    assert is_subgroup_set(g, c) == (frozenset(c) in subgroups), (g, c)


def brute_force_subgroups(g: GroupSpec) -> set[frozenset]:
    """Oracle: check every subset of the group for closure."""
    els = g.elements()
    out = set()
    for r in range(1, len(els) + 1):
        for c in itertools.combinations(els, r):
            s = frozenset(c)
            if g.zero in s and all(g.add(a, b) in s for a in s for b in s):
                out.add(s)
    return out


@pytest.mark.parametrize(
    "g,count",
    [
        (Z8, 4),
        (GroupSpec((2, 2)), 5),
        (Z7, 2),
        (Z6, 4),
        (Z2Z4, 8),
        (GroupSpec((2, 2, 2)), 16),
        (GroupSpec((12,)), 6),
    ],
)
def test_all_subgroups_against_oracle(g, count):
    subs = all_subgroups(g)
    assert len(subs) == count
    assert {h.as_set() for h in subs} == brute_force_subgroups(g)
    # Lagrange
    for h in subs:
        assert g.order % h.order == 0


def test_all_subgroups_capacity():
    with pytest.raises(CapacityError):
        all_subgroups(GroupSpec((5000,)))


def test_all_subgroups_match_add_table_walk():
    # the coordinate walk against the (n, n) add-table walk it replaced, on
    # every group of order 2..64 (Z2^6 among them) and on Z360
    groups = [g for n in range(2, 65) for g in abelian_groups_of_order(n)]
    assert len(groups) == 116 and GroupSpec((2,) * 6) in groups
    for g in groups + [GroupSpec((360,))]:
        assert all_subgroups(g) == scalar_oracle.oracle_all_subgroups(g), g


def test_cyclic_group_has_one_subgroup_per_divisor():
    g = GroupSpec((1500,))
    divisors = [d for d in range(1, 1501) if 1500 % d == 0]
    subs = all_subgroups(g)
    assert len(divisors) == len(subs) == 24
    assert [h.order for h in subs] == divisors
    for h, d in zip(subs, divisors):
        assert h.elements == tuple((k,) for k in range(0, 1500, 1500 // d))


def test_difference_table_capped_before_allocation():
    g = GroupSpec((5003,))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            _difference_index_table(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_annihilator_examples():
    H = make_subgroup(Z6, [(0,), (3,)])
    assert annihilator(Z6, H).elements == ((0,), (2,), (4,))
    trivial = make_subgroup(Z6, [(0,)])
    assert annihilator(Z6, trivial).order == 6
    assert annihilator(Z6, make_subgroup(Z6, Z6.elements())).elements == ((0,),)
    with pytest.raises(InvalidSubgroupError):
        annihilator(Z6, Subgroup(Z6, ((0,), (1,))))


@pytest.mark.parametrize("g", [Z6, Z8, Z2Z4, GroupSpec((2, 2, 2)), GroupSpec((12,)), GroupSpec((4, 4))])
def test_annihilator_cardinality_and_nesting(g):
    subs = all_subgroups(g)
    anns = {h.elements: annihilator(g, h) for h in subs}
    for h in subs:
        assert anns[h.elements].order * h.order == g.order
    # nesting reversal
    for h1 in subs:
        for h2 in subs:
            if h1.as_set() <= h2.as_set():
                assert anns[h2.elements].as_set() <= anns[h1.elements].as_set()


def test_subgroup_character_sums_are_zero_or_order():
    for g in (Z6, Z2Z4, GroupSpec((2, 2, 2))):
        for h in all_subgroups(g):
            for z in g.elements():
                v = character_sum_over(g, z, h)
                assert v in (0, h.order)


def test_annihilator_product_law_to_order_64():
    # |Ann(H)| * |H| = n for every subgroup of every abelian group to order 64
    from framelab.search import abelian_groups_of_order

    for n in range(2, 65):
        for g in abelian_groups_of_order(n):
            for h in all_subgroups(g):
                assert annihilator(g, h).order * h.order == n


def test_character_value_unit_modulus():
    for g in (Z2Z4, GroupSpec((9,))):
        for x in g.elements():
            for y in g.elements():
                v = character_eval(g, x, y)
                assert abs(abs(v.complex_value) - 1) < 1e-12
    assert character_eval(Z8, (4,), (1,)).is_real
    assert not character_eval(Z8, (1,), (1,)).is_real


def test_full_character_table_matches_column_oracle():
    groups = [g for n in range(2, 65) for g in abelian_groups_of_order(n)]
    assert len(groups) == 116
    for g in groups:
        want = scalar_oracle.oracle_full_character_table(g)
        assert np.array_equal(full_character_table(g), want), g


def test_difference_table_entries_match_element_arithmetic():
    g = GroupSpec((2, 3, 4))
    table = _difference_index_table(g)
    els = g.elements()
    for i, x in enumerate(els):
        assert table[i].tolist() == [g.index(g.add(y, g.neg(x))) for y in els]


@pytest.mark.parametrize("factors", [(2039,), (4, 512), (2,) * 11])
def test_difference_table_is_int16_built_in_place(factors):
    # every index is below SUBGROUP_ORDER_BOUND = 4096; one build holds the
    # table and at most one (n, n) int16 temporary
    g = GroupSpec(factors)
    g.elements()  # the element list is cached apart from the table
    tracemalloc.start()
    try:
        table = _difference_index_table.__wrapped__(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int16
    assert peak <= 2.5 * table.nbytes
    assert table[:, 0].tolist() == [g.index(g.neg(x)) for x in g.elements()]
