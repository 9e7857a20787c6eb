"""Axle invariants, condition algebra, and the symmetry maps."""

import pytest

from cartwheel_discharge.axles import (Axle, NULL_CONDITION,
                                       axle_wedge_condition, band_of,
                                       condition_compatible, is_fan_free,
                                       negate_condition, pos_add, spoke_of,
                                       symmetry_permutation, trivial_axle,
                                       validate_axle)
from cartwheel_discharge.errors import InputError
from cartwheel_discharge.oracles import (random_axle, random_condition,
                                         reflect_axle, rotate_axle)


def strip_fans(a):
    lo = bytearray(a.lo)
    hi = bytearray(a.hi)
    for n in range(2 * a.d + 1, 5 * a.d + 1):
        lo[n] = 5
        hi[n] = 12
    return Axle(a.d, bytes(lo), bytes(hi))


def test_trivial_axle_shape():
    for d in range(5, 12):
        a = trivial_axle(d)
        assert len(a.lo) == len(a.hi) == 5 * d + 1
        assert a.bounds(0) == (d, d)
        assert validate_axle(a) == []
    with pytest.raises(InputError):
        trivial_axle(4)
    with pytest.raises(InputError):
        trivial_axle(12)


def test_band_layout():
    d = 7
    assert band_of(0, d) == "hub"
    assert band_of(1, d) == band_of(7, d) == "spoke"
    assert band_of(8, d) == band_of(14, d) == "hat"
    assert band_of(15, d) == band_of(35, d) == "fan"
    assert spoke_of(15, d) == 1 and spoke_of(35, d) == 7


def test_pos_add_wraps_within_band():
    d = 7
    assert pos_add(2, 6, d) == 1        # spoke band wrap
    assert pos_add(7, 1, d) == 1
    assert pos_add(8, 6, d) == 14       # hat band
    assert pos_add(14, 1, d) == 8
    assert pos_add(15, 6, d) == 21      # fan band keeps its row
    assert pos_add(21, 1, d) == 15


def test_validate_axle_flags_each_clause():
    a = trivial_axle(7)
    lo = bytearray(a.lo)
    hi = bytearray(a.hi)
    hi[3] = 6
    lo[3] = 7
    assert ("A1", 3) in validate_axle(Axle(7, bytes(lo), bytes(hi)))

    lo = bytearray(a.lo)
    lo[4] = 4
    assert ("A2", 4) in validate_axle(Axle(7, bytes(lo), a.hi))
    hi = bytearray(a.hi)
    hi[4] = 9
    assert ("A2", 4) in validate_axle(Axle(7, a.lo, bytes(hi)))

    # fan entry under an unpinned spoke
    lo = bytearray(a.lo)
    lo[15] = 6
    assert ("A3", 1) in validate_axle(Axle(7, bytes(lo), a.hi))

    # same entry under a pinned spoke is fine
    lo[1] = 7
    hi = bytearray(a.hi)
    hi[1] = 7
    assert validate_axle(Axle(7, bytes(lo), bytes(hi))) == []


def test_null_condition_behavior():
    a = trivial_axle(7)
    assert not condition_compatible(a, NULL_CONDITION)
    with pytest.raises(InputError):
        negate_condition(NULL_CONDITION)


def test_condition_negation_is_an_involution():
    assert negate_condition((3, -6)) == (3, 7)
    assert negate_condition((3, 7)) == (3, -6)
    for m in (-8, -7, -6, -5, 6, 7, 8, 9):
        assert negate_condition(negate_condition((1, m))) == (1, m)


def test_wedge_splits_the_interval():
    a = trivial_axle(7)
    c = (2, -6)
    hi_side = axle_wedge_condition(a, c)
    lo_side = axle_wedge_condition(a, negate_condition(c))
    assert hi_side.bounds(2) == (5, 6)
    assert lo_side.bounds(2) == (7, 12)
    for n in range(5 * 7 + 1):
        if n != 2:
            assert hi_side.bounds(n) == a.bounds(n)
            assert lo_side.bounds(n) == a.bounds(n)


def test_fan_condition_requires_a_pin():
    a = trivial_axle(7)
    assert not condition_compatible(a, (15, -6))
    pinned = axle_wedge_condition(axle_wedge_condition(a, (1, 7)), (1, -7))
    assert pinned.bounds(1) == (7, 7)
    assert condition_compatible(pinned, (15, -6))
    assert condition_compatible(pinned, (22, -6))
    # row 4 fan needs a pin of at least 8
    assert not condition_compatible(pinned, (29, -6))


def test_incompatible_wedge_raises():
    a = trivial_axle(7)
    with pytest.raises(InputError):
        axle_wedge_condition(a, (2, 5))   # lo < 5 <= hi fails


def test_rotate_reflect_identities():
    for d in range(5, 12):
        for seed in range(30):
            a = strip_fans(random_axle(d, seed))
            assert is_fan_free(a)
            b = a
            for _ in range(d):
                b = rotate_axle(b)
            assert b == a
            assert reflect_axle(reflect_axle(a)) == a


def test_rotate_requires_fan_free():
    a = trivial_axle(7)
    lo = bytearray(a.lo)
    hi = bytearray(a.hi)
    lo[1] = hi[1] = 7
    lo[15] = 6
    pinned = Axle(7, bytes(lo), bytes(hi))
    with pytest.raises(InputError):
        rotate_axle(pinned)
    with pytest.raises(InputError):
        reflect_axle(pinned)


def test_symmetry_permutation_matches_rotate_and_reflect():
    for d in range(5, 12):
        a = strip_fans(random_axle(d, 99 + d))
        for eps in (0, 1):
            img = reflect_axle(a) if eps else a
            for k in range(d):
                perm = symmetry_permutation(k, eps, d)
                moved = img
                for _ in range(k):
                    moved = rotate_axle(moved)
                for j in range(2 * d + 1):
                    assert moved.bounds(perm[j]) == a.bounds(j)


def test_digest_is_stable_and_distinct():
    a = trivial_axle(7)
    assert len(a.digest()) == 12
    assert a.digest() == trivial_axle(7).digest()
    assert a.digest() != trivial_axle(8).digest()
    assert a.digest() != axle_wedge_condition(a, (1, -6)).digest()


def test_random_condition_compatibility_flag():
    for d in (5, 8, 11):
        a = random_axle(d, 4)
        assert condition_compatible(a, random_condition(a, 1, compatible=True))
        assert not condition_compatible(
            a, random_condition(a, 2, compatible=False))
