"""Seeded instance generators and the brute-force reference oracles."""

import warnings

import pytest

from _fixtures import CONFIGS_DB, make_config
from cartwheel_discharge.axles import (
    Axle,
    condition_compatible,
    trivial_axle,
    validate_axle,
)
from cartwheel_discharge.configurations import load_database
from cartwheel_discharge.errors import InputError
from cartwheel_discharge.oracles import (
    brute_force_bound,
    brute_force_subconfig,
    random_axle,
    random_condition,
    random_outlets,
)
from cartwheel_discharge.reducibility import semi_reducible, skeleton_of
from cartwheel_discharge.rules import Outlet, validate_outlet


def ax(d, pins):
    base = trivial_axle(d)
    lo = bytearray(base.lo)
    hi = bytearray(base.hi)
    for p, (l, u) in pins.items():
        lo[p] = l
        hi[p] = u
    return Axle(d, bytes(lo), bytes(hi))


def out(value, *entries):
    return Outlet(value, tuple(entries))


def never(_):
    return False


def always(_):
    return True


@pytest.fixture(scope="module")
def db():
    return load_database(CONFIGS_DB)


# ------------------------------------------------------------ generators

def test_generators_are_deterministic():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a1 = random_axle(7, ("suite", 3))
        a2 = random_axle(7, ("suite", 3))
    assert a1 == a2
    assert random_condition(a1, 9) == random_condition(a2, 9)
    assert random_outlets(7, ("o", 1), 5) == random_outlets(7, ("o", 1), 5)


def test_generators_vary_with_the_seed():
    digests = {random_axle(7, s).digest() for s in range(10)}
    assert len(digests) >= 5


def test_random_axles_are_valid():
    for d in range(5, 12):
        for s in range(30):
            assert validate_axle(random_axle(d, s)) == []


def test_random_conditions_respect_the_flag():
    for d in (5, 8, 11):
        for s in range(10):
            a = random_axle(d, ("cond", d, s))
            assert condition_compatible(a, random_condition(a, s))
            bad = random_condition(a, s, compatible=False)
            assert not condition_compatible(a, bad)


def test_random_condition_can_run_out_of_pool():
    # every position pinned at 5 and no fan row reachable from a 5-spoke
    a = Axle(5, bytes([5] * 26), bytes([5] * 11 + [12] * 15))
    assert validate_axle(a) == []
    with pytest.raises(InputError, match="no condition"):
        random_condition(a, 0)
    assert not condition_compatible(a, random_condition(a, 0, compatible=False))


def test_random_outlets_are_valid():
    for d in (5, 7, 11):
        outs = random_outlets(d, d, 50)
        assert len(outs) == 50
        for o in outs:
            assert validate_outlet(o, d) == []
            assert 1 <= len(o.entries) <= 4
    singles = random_outlets(7, 2, 20, max_entries=1)
    assert all(len(o.entries) == 1 for o in singles)
    assert {o.value for o in outs} <= {1, -1, 2, -2}


# ------------------------------------------------------- bound reference

def test_bound_oracle_on_empty_input():
    assert brute_force_bound(trivial_axle(7), (), never) == 0
    assert brute_force_bound(trivial_axle(7), (), always) is None


def test_bound_oracle_exclusive_positives():
    pos = ((out(1, (1, 5, 6)), 1), (out(1, (1, 7, 8)), 1))
    assert brute_force_bound(trivial_axle(7), pos, never) == 1
    assert brute_force_bound(trivial_axle(7), pos, always) is None


def test_bound_oracle_counts_enforced_negatives():
    pos = ((out(-1, (1, 5, 12)), 1),)
    assert brute_force_bound(trivial_axle(7), pos, never) == -1


def test_bound_oracle_overlapping_positives():
    pos = ((out(1, (1, 6, 6)), 1), (out(1, (1, 6, 7)), 1))
    assert brute_force_bound(trivial_axle(7), pos, never) == 2


def test_bound_oracle_skips_reduced_wedges():
    pos = ((out(1, (1, 7, 8)), 1),)
    reducer = lambda b: b.lo[1] >= 7
    assert brute_force_bound(trivial_axle(7), pos, reducer) == 0


def test_bound_oracle_honors_the_position_shift():
    a = ax(7, {3: (5, 6)})
    assert brute_force_bound(a, ((out(-1, (1, 5, 6)), 3),), never) == -1
    assert brute_force_bound(a, ((out(-1, (1, 5, 6)), 4),), never) == 0


def test_bound_oracle_caps():
    o = out(1, (1, 6, 6))
    with pytest.raises(InputError, match="at most 16"):
        brute_force_bound(trivial_axle(7), ((o, 1),) * 17, never)
    with pytest.raises(InputError, match="too many undecided"):
        brute_force_bound(trivial_axle(7), ((o, 1),) * 15, never)


# -------------------------------------------------- placement reference

def test_subconfig_oracle_counts_free_vertices():
    cfg = make_config("dot12", {1: 12}, {1: []})
    res = brute_force_subconfig(cfg, skeleton_of(trivial_axle(7)))
    assert len(res) == 14
    assert sorted(f[1] for f, _ in res) == list(range(1, 15))
    assert all(wp for _, wp in res)


def test_subconfig_oracle_caps():
    rot = {i: [j for j in (i - 1, i + 1) if 1 <= j <= 10] for i in range(1, 11)}
    path10 = make_config("path10", {i: 12 for i in rot}, rot, validate=False)
    with pytest.raises(InputError, match="at most 9"):
        brute_force_subconfig(path10, skeleton_of(trivial_axle(7)))
    tiny = make_config("dot12", {1: 12}, {1: []})
    with pytest.raises(InputError, match="hub degree at most 8"):
        brute_force_subconfig(tiny, skeleton_of(trivial_axle(9)))


def test_subconfig_oracle_accepts_mirror_placements(db):
    a = ax(5, {1: (6, 6), 2: (6, 6), 6: (5, 5)})
    dia = next(gc for gc in db if gc.name == "diamond").config
    found = [f for f, wp in brute_force_subconfig(dia, skeleton_of(a)) if wp]
    assert {1: 1, 2: 0, 3: 2, 4: 6} in found
    assert {1: 1, 2: 6, 3: 2, 4: 0} in found


def test_semi_reducible_matches_the_oracle(db):
    axles = [trivial_axle(5),
             ax(5, {1: (5, 5), 6: (5, 6), 10: (5, 6)}),
             ax(5, {1: (6, 6), 2: (6, 6), 6: (5, 5)}),
             ax(7, {1: (6, 6), 2: (6, 6)})]
    for d in (5, 6, 7, 8):
        for s in range(5):
            axles.append(random_axle(d, ("agree", d, s)))
    for a in axles:
        skel = skeleton_of(a)
        for gc in db:
            wanted = [f for f, wp in brute_force_subconfig(gc.config, skel)
                      if wp]
            got = semi_reducible(a, [gc])
            if got is None:
                assert wanted == [], (a, gc.name)
            else:
                assert got[0] is gc
                assert got[1] in wanted, (a, gc.name)
