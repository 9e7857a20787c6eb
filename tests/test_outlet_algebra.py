"""The three kernel operations against each other and against the
wedge-as-intersection reading."""

import pytest

from cartwheel_discharge.axles import (Axle, axle_wedge_condition,
                                       trivial_axle, validate_axle)
from cartwheel_discharge.errors import InputError
from cartwheel_discharge.oracles import (random_axle, random_condition,
                                         random_outlets)
from cartwheel_discharge.rules import (Outlet, axle_wedge_outlet, enforced,
                                       outlet_from_axle, permitted)

from test_axles import strip_fans


def cases(d, n_axles=12, n_outlets=12):
    axles = [random_axle(d, seed) for seed in range(n_axles)]
    outlets = random_outlets(d, seed=d, count=n_outlets)
    for a in axles:
        for o in outlets:
            for x in range(1, d + 1):
                yield a, o, x


def test_wedge_succeeds_iff_permitted():
    for d in range(5, 12):
        for a, o, x in cases(d):
            w = axle_wedge_outlet(a, o, x)
            assert (w is not None) == permitted(a, o, x)


def test_enforced_implies_permitted_and_fixed_point():
    for d in range(5, 12):
        for a, o, x in cases(d):
            if enforced(a, o, x):
                assert permitted(a, o, x)
                assert axle_wedge_outlet(a, o, x) == a


def test_wedge_output_is_tighter_and_enforces():
    for d in range(5, 12):
        for a, o, x in cases(d):
            w = axle_wedge_outlet(a, o, x)
            if w is None:
                continue
            assert enforced(w, o, x)
            for n in range(5 * d + 1):
                assert a.lo[n] <= w.lo[n] <= w.hi[n] <= a.hi[n]


def test_tightening_monotonicity():
    for d in range(5, 12):
        for seed in range(40):
            a = random_axle(d, seed)
            c = random_condition(a, seed + 1000, compatible=True)
            tighter = axle_wedge_condition(a, c)
            for o in random_outlets(d, seed=(d, seed), count=6):
                for x in range(1, d + 1):
                    if enforced(a, o, x):
                        assert enforced(tighter, o, x)
                    if permitted(tighter, o, x):
                        assert permitted(a, o, x)


def test_positioning_shift_is_a_translation():
    d = 7
    o = Outlet(1, ((1, 6, 6), (2, 5, 8)))
    a = trivial_axle(d)
    w = axle_wedge_outlet(a, o, 3)
    assert w.bounds(3) == (6, 6)
    assert w.bounds(4) == (5, 8)
    # wrap: spoke 1 entry positioned at spoke 7, companion wraps to 1
    w = axle_wedge_outlet(a, o, 7)
    assert w.bounds(7) == (6, 6)
    assert w.bounds(1) == (5, 8)


def test_fan_entries_translate_with_their_spoke():
    d = 7
    o = Outlet(1, ((1, 6, 6), (15, 5, 6)))
    a = trivial_axle(d)
    w = axle_wedge_outlet(a, o, 4)
    assert w.bounds(4) == (6, 6)
    assert w.bounds(18) == (5, 6)
    assert validate_axle(w) == []


def test_fan_free_roundtrip_identity():
    for d in range(5, 12):
        for seed in range(50):
            a = strip_fans(random_axle(d, seed))
            o = outlet_from_axle(a)
            assert axle_wedge_outlet(trivial_axle(d), o, 1) == a


def test_outlet_from_axle_requires_fan_free():
    d = 7
    a = trivial_axle(d)
    lo = bytearray(a.lo)
    hi = bytearray(a.hi)
    lo[1] = hi[1] = 7
    lo[15] = 6
    with pytest.raises(InputError):
        outlet_from_axle(Axle(d, bytes(lo), bytes(hi)))
