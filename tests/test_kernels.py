"""The packed interval kernels against the byte-loop references in
oracles.py, on legal axles and outlets only."""

import random

import pytest

from cartwheel_discharge import _kernels
from cartwheel_discharge.axles import (HI_VALUES, LO_VALUES, Axle,
                                       trivial_axle)
from cartwheel_discharge.oracles import (_enf, _perm, _wedge, random_axle,
                                         random_outlets)
from cartwheel_discharge.rules import (Outlet, axle_wedge_outlet, enforced,
                                       permitted)


@pytest.mark.parametrize("d", range(5, 12))
def test_kernels_match_the_byte_loops(d):
    outlets = random_outlets(d, ("kernels", d), 40)
    for k in range(60):
        a = random_axle(d, ("kernels", d, k))
        for out in outlets:
            for x in range(1, d + 1):
                assert enforced(a, out, x) == _enf(a.lo, a.hi, out, x, d)
                assert permitted(a, out, x) == _perm(a.lo, a.hi, out, x, d)
                got = axle_wedge_outlet(a, out, x)
                want = _wedge(a.lo, a.hi, out, x, d)
                if want is None:
                    assert got is None
                else:
                    assert (got.lo, got.hi) == want
                    assert got == Axle(d, *want)


@pytest.mark.parametrize("d", range(5, 12))
def test_lane_tables_match_the_kernels_and_byte_loops(d):
    # one table per placement list, reused across axles so that filled
    # slots are read back as well as filled
    rng = random.Random(f"lanes-{d}")
    outlets = random_outlets(d, ("lanes", d), 40)
    assert any(p > 2 * d for out in outlets for p, _, _ in out.entries)
    for size in (0, 1, 17, 60):
        placed = [(outlets[rng.randrange(40)], rng.randrange(1, d + 1))
                  for _ in range(size)]
        masks = [out.masks(x, d) for out, x in placed]
        tables = _kernels.LaneTables(masks, d)
        for k in range(40):
            a = random_axle(d, ("lanes", d, size, k))
            loose, barred = tables.settle(a.packed)
            assert loose >> size == barred >> size == 0
            for i, ((out, x), m) in enumerate(zip(placed, masks)):
                enf = not loose >> i & 1
                perm = not barred >> i & 1
                assert enf == _kernels.outlet_enforced(a.packed, m) == \
                    _enf(a.lo, a.hi, out, x, d)
                assert perm == _kernels.outlet_permitted(a.packed, m) == \
                    _perm(a.lo, a.hi, out, x, d)


def test_pack_unpack_round_trips_every_legal_interval():
    d = 7
    for n in range(1, 5 * d + 1):
        for lo in LO_VALUES:
            for hi in HI_VALUES:
                if lo > hi:
                    continue
                a = trivial_axle(d)
                blo = bytearray(a.lo)
                bhi = bytearray(a.hi)
                blo[n] = lo
                bhi[n] = hi
                a = Axle(d, bytes(blo), bytes(bhi))
                b = Axle.from_packed(d, a.packed)
                assert (b.lo, b.hi) == (a.lo, a.hi)
                assert b == a and hash(b) == hash(a)
                assert b.digest() == a.digest()


def test_packing_rejects_illegal_axles():
    a = trivial_axle(7)
    for lo, hi in ((10, 12), (5, 9), (7, 6)):
        blo = bytearray(a.lo)
        bhi = bytearray(a.hi)
        blo[3] = lo
        bhi[3] = hi
        with pytest.raises(ValueError):
            Axle(7, bytes(blo), bytes(bhi)).packed
    with pytest.raises(ValueError):
        Axle(7, a.lo[:-1], a.hi[:-1]).packed


def test_compiling_rejects_illegal_entries():
    with pytest.raises(ValueError):
        _kernels.compile_outlet(((1, 6, 10),), 1, 7)


def test_masks_compile_once_per_spoke_and_degree():
    out = Outlet(1, ((1, 6, 6), (8, 5, 7)))
    assert out.masks(3, 7) is out.masks(3, 7)
    assert out.masks(3, 7) != out.masks(4, 7)
    assert out.masks(3, 7) != out.masks(3, 8)
