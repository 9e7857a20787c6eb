"""Skeleton drawings, placement checks, and the reducibility loop."""

import hashlib
import itertools
import random

import pytest

from _fixtures import CONFIGS_DB, CONFIGS_SMALL, fuzz_corpus
from cartwheel_discharge import reducibility
from cartwheel_discharge.axles import Axle, trivial_axle, validate_axle
from cartwheel_discharge.configurations import Configuration, load_database
from cartwheel_discharge.errors import CartwheelError, ReducibilityFailure
from cartwheel_discharge.oracles import random_axle
from cartwheel_discharge.reducibility import (
    _positive_answers,
    check_iso,
    reducible,
    semi_reducible,
    skeleton_of,
    well_positioned,
)


def ax(d, bounds):
    base = trivial_axle(d)
    lo = bytearray(base.lo)
    hi = bytearray(base.hi)
    for pos, (a, b) in bounds.items():
        lo[pos] = a
        hi[pos] = b
    return Axle(d, bytes(lo), bytes(hi))


@pytest.fixture(scope="module")
def db():
    return load_database(CONFIGS_SMALL)


@pytest.fixture(scope="module")
def fuzz_db():
    """The distinct records that build from the fuzz corpus, in corpus
    order, each renamed by its place so that a trace names the record
    (mutants keep the name of the record they came from)."""
    built = []
    seen = set()
    for text in fuzz_corpus():
        try:
            records = load_database(text)
        except CartwheelError:
            continue
        for gc in records:
            key = (gc.question, tuple(sorted(gc.config.gamma.items())))
            if key not in seen:
                seen.add(key)
                gc.config.name = f"{gc.name}.{len(built)}"
                built.append(gc)
    assert len(built) == 289
    return built


# -------------------------------------------------------------- skeleton

def _triangles(third):
    """The closed triangles (u, v, w) of a `third` table, each from its
    least vertex, in order."""
    return tuple(sorted((u, v, w) for (u, v), w in third.items()
                        if u < v and u < w))


def test_skeleton_of_the_trivial_cartwheel():
    skel = skeleton_of(trivial_axle(7))
    assert len(skel.gamma) == 15
    assert skel.gamma[0] == 7
    assert all(skel.gamma[p] == 12 for p in range(1, 15))
    assert len(_triangles(skel.third)) == 14


def test_skeleton_low_pin_closes_the_wheel():
    # a degree-5 spoke has no fan row; its two hats meet
    skel = skeleton_of(ax(7, {1: (5, 5)}))
    assert len(skel.gamma) == 15
    assert 8 in skel.adj[14]
    assert skel.gamma[1] == 5


def test_skeleton_high_pin_grows_fan_rows():
    # a degree-7 spoke carries fan rows at 2d+1 and 3d+1
    skel = skeleton_of(ax(7, {1: (7, 7)}))
    assert sorted(skel.gamma) == list(range(15)) + [15, 22]
    assert skel.gamma[15] == 12 and skel.gamma[22] == 12
    assert {15, 22} <= skel.adj[1]
    assert 15 in skel.adj[14]
    assert 22 in skel.adj[15]
    assert 8 in skel.adj[22]


def test_skeleton_carries_hat_bounds_as_labels():
    skel = skeleton_of(ax(7, {8: (5, 6), 10: (5, 8)}))
    assert skel.gamma[8] == 6
    assert skel.gamma[10] == 8


def test_skeleton_is_deterministic():
    a = ax(7, {1: (6, 6), 4: (5, 7)})
    assert skeleton_of(a).rot == skeleton_of(a).rot


def test_skeleton_drawings_keep_their_digest():
    # the drawings of 200 seeded axles against a fixed digest: a change
    # to any rotation, label, corner or triangle shows
    h = hashlib.sha256()
    for d in range(7, 12):
        for s in range(40):
            skel = skeleton_of(random_axle(d, s))
            for table in (skel.rot, skel.cyclic, skel.gamma, skel.third):
                h.update(repr(sorted(table.items())).encode())
            h.update(repr(_triangles(skel.third)).encode())
    assert h.hexdigest() == (
        "128571de3150712f526a91c73ef8aae735d8327a1c7e0308220d7ce08cbd4312")


def test_skeletons_are_built_without_validation(monkeypatch):
    # the digest test again, with every validating method refusing
    def refuse(self):
        raise AssertionError(f"{self.name} was validated")

    for method in ("validate", "_check_graph"):
        monkeypatch.setattr(Configuration, method, refuse)
    test_skeleton_drawings_keep_their_digest()


PINS = (5, 6, 7, 8, 12)


def _pin_patterns():
    """(d, spoke pins): every pattern at d = 5 and 6, and at d = 7..11
    every content of the four spokes across the wrap (d-1, d, 1, 2),
    the spokes between them seeded."""
    for d in (5, 6):
        yield from ((d, pins) for pins in itertools.product(PINS, repeat=d))
    rng = random.Random("wrap")
    for d in range(7, 12):
        for left, right, one, two in itertools.product(PINS, repeat=4):
            between = [rng.choice(PINS) for _ in range(d - 4)]
            yield d, (one, two, *between, left, right)


def test_skeletons_match_validation_on_every_pin_pattern():
    # skeleton_of builds its drawing without validating it; full
    # validation must accept that drawing and find the same adjacency,
    # corners and triangles.  The drawing depends only on the pins
    # (every other position keeps bound 12, above its degree).
    count = 0
    for d, pins in _pin_patterns():
        base = trivial_axle(d)
        hi = bytearray(base.hi)
        hi[1:d + 1] = pins
        skel = skeleton_of(Axle(d, base.lo, bytes(hi)))
        ref = Configuration(skel.name, skel.gamma, skel.rot,
                            skel.cyclic).validate()
        assert skel.adj == ref.adj, (d, pins)
        assert skel.third == ref.third, (d, pins)
        assert _triangles(skel.third) == ref.triangles, (d, pins)
        count += 1
    assert count == 5 ** 5 + 5 ** 6 + 5 * 5 ** 4


def test_skeletons_from_a_shared_piece_memo_equal_fresh_ones():
    # one memo serves a mixed sequence of degrees and pin patterns, and
    # seeded axles with fan and hat bounds between them: every skeleton
    # put together from it equals one built from nothing
    rng = random.Random("pieces")
    patterns = rng.sample(list(_pin_patterns()), 1500)
    axles = []
    for t, (d, pins) in enumerate(patterns):
        base = trivial_axle(d)
        hi = bytearray(base.hi)
        hi[1:d + 1] = pins
        axles += [Axle(d, base.lo, bytes(hi)), random_axle(5 + t % 7, t)]
    pieces = {}
    for a in axles:
        shared, fresh = skeleton_of(a, pieces), skeleton_of(a)
        for table in ("rot", "cyclic", "gamma", "adj", "third", "by_label",
                      "have"):
            assert getattr(shared, table) == getattr(fresh, table), a
        assert list(shared.gamma) == list(fresh.gamma), a
    assert len(pieces) == 1673


def test_skeleton_and_placement_read_only_the_upper_bounds():
    # the (d, hi) key of reducible's placement memo: raising lower
    # bounds under the same upper bounds changes neither the drawing
    # nor the first placement the database finds in it
    db = load_database(CONFIGS_DB)
    rng = random.Random("lo-only")
    raised = placed = 0
    for d in range(7, 12):
        for s in range(40):
            a = random_axle(d, s)
            lo = bytearray(a.lo)
            for p in range(1, 5 * d + 1):
                spoke = (p - 1) % d + 1
                if p > 2 * d and a.lo[spoke] < a.hi[spoke]:
                    continue    # an open spoke's fans stay trivial
                top = min(a.hi[p], 9)
                if lo[p] < top and rng.random() < 0.5:
                    lo[p] = rng.randint(lo[p] + 1, top)
            b = Axle(d, bytes(lo), a.hi)
            assert validate_axle(b) == []
            raised += b.lo != a.lo
            ka, kb = skeleton_of(a), skeleton_of(b)
            for table in ("rot", "cyclic", "gamma", "third"):
                assert getattr(ka, table) == getattr(kb, table)
            found = semi_reducible(a, db)
            assert semi_reducible(b, db) == found
            placed += found is not None
    assert raised >= 190 and placed >= 150


# ------------------------------------------------------------ placements

def test_positive_answer_lands_on_pinned_spokes(db):
    a = ax(7, {1: (6, 6), 2: (6, 6)})
    skel = skeleton_of(a)
    edge66 = db[0]
    f = next(_positive_answers(edge66.question, skel))
    assert f[1] == 1 and f[2] == 2


def _full_scan(question, skel):
    """`_positive_answers` seeding z0 from a scan of every skeleton
    vertex: the reference for its label index."""
    gam = skel.gamma
    (_, _, z0, x0), (_, _, z1, x1) = question[:2]
    for p in sorted(skel.gamma):
        if x0 > 0 and gam[p] != x0:
            continue
        for r in sorted(skel.adj[p]):
            if x1 > 0 and gam[r] != x1:
                continue
            f = {z0: p, z1: r}
            used = {p, r}
            for (u, v, z, xi) in question[2:]:
                w = skel.third.get((f[u], f[v]))
                if w is None or w in used or (xi > 0 and gam[w] != xi):
                    break
                f[z] = w
                used.add(w)
            else:
                yield f


def test_probes_seeded_by_label_match_a_full_scan():
    fixtures = load_database(CONFIGS_DB)
    found = 0
    for d in range(5, 12):
        for s in range(30):
            skel = skeleton_of(random_axle(d, s))
            for gc in fixtures:
                for question in (gc.question, gc.reflection):
                    got = list(_positive_answers(question, skel))
                    assert got == list(_full_scan(question, skel)), (d, s)
                    found += len(got)
    assert found >= 1000, found


def test_the_label_gate_skips_only_configurations_that_cannot_appear(
        fuzz_db, monkeypatch):
    # the database scan probes a configuration only when the skeleton
    # has a position for each label it places; one it skips must have
    # no answer in either handing
    probed = []
    answers = reducibility._positive_answers

    def recording(question, skel):
        probed.append(question)
        return answers(question, skel)

    monkeypatch.setattr(reducibility, "_positive_answers", recording)
    configs = load_database(CONFIGS_DB) + fuzz_db
    pieces = {}
    skipped = 0
    for d in range(5, 12):
        for s in range(12):
            a = random_axle(d, s)
            skel = skeleton_of(a)
            for gc in configs:
                probed.clear()
                semi_reducible(a, [gc], pieces)
                if probed:
                    continue
                skipped += 1
                for question in (gc.question, gc.reflection):
                    assert next(answers(question, skel), None) is None
    # 21,433 of the 24,864 scans skip
    assert skipped >= 20000


def test_semi_reducible_returns_config_and_image(db):
    a = ax(7, {1: (6, 6), 2: (6, 6)})
    found = semi_reducible(a, db)
    assert found is not None
    gc, img = found
    assert gc.name == "edge66"
    assert img == {1: 1, 2: 2}


def test_semi_reducible_misses_when_nothing_matches(db):
    assert semi_reducible(trivial_axle(7), db) is None


def test_check_iso_accepts_both_handings(db):
    a = ax(7, {1: (6, 6), 2: (6, 6), 8: (5, 6)})
    skel = skeleton_of(a)
    tri = load_database(
        "config tri666 3\nv 1 6 : 2 3\nv 2 6 : 3 1\nv 3 6 : 1 2\nend\n")[0]
    assert check_iso({1: 1, 2: 2, 3: 8}, tri.config, skel)
    assert check_iso({1: 1, 2: 8, 3: 2}, tri.config, skel)


def test_check_iso_accepts_a_mirror_diamond():
    # v1,v3 on the spokes; v2,v4 swap between hub and hat under mirror
    a = ax(5, {1: (6, 6), 2: (6, 6), 6: (5, 5)})
    skel = skeleton_of(a)
    diamond = load_database(
        "config diamond 4\nv 1 6 : 2 3 4\nv 2 5 : 3 1\n"
        "v 3 6 : 4 1 2\nv 4 5 : 1 3\nend\n")[0]
    assert check_iso({1: 1, 2: 0, 3: 2, 4: 6}, diamond.config, skel)
    assert check_iso({1: 1, 2: 6, 3: 2, 4: 0}, diamond.config, skel)


def test_check_iso_rejects_defects(db):
    a = ax(7, {1: (6, 6), 3: (6, 6)})
    skel = skeleton_of(a)
    edge66 = db[0].config
    assert not check_iso({1: 1, 2: 1}, edge66, skel)      # not injective
    assert not check_iso({1: 1, 2: 0}, edge66, skel)      # hub label is 7
    assert not check_iso({1: 1, 2: 3}, edge66, skel)      # spokes 1,3 apart
    good = ax(7, {1: (6, 6), 2: (6, 6)})
    assert check_iso({1: 1, 2: 2}, edge66, skeleton_of(good))


def test_well_positioned_demands_a_hat_gap(db):
    # both hats of the omitted spoke 1 are in the image
    a = ax(5, {1: (5, 5), 6: (5, 6), 10: (5, 6)})
    skel = skeleton_of(a)
    assert 10 in skel.adj[6]
    edge66 = db[0]
    assert not well_positioned({1: 6, 2: 10}, edge66.config, skel)
    assert semi_reducible(a, db[:1]) is None


def test_well_positioned_allows_present_spokes(db):
    a = ax(7, {1: (6, 6), 2: (6, 6)})
    skel = skeleton_of(a)
    assert well_positioned({1: 1, 2: 2}, db[0].config, skel)


# --------------------------------------------------------------- the loop

def test_reducible_expands_the_decrement_tree(db):
    a = ax(7, {1: (5, 6), 2: (5, 6)})
    c1 = ax(7, {1: (5, 5), 2: (5, 6)})
    c11 = ax(7, {1: (5, 5), 2: (5, 5)})
    c2 = ax(7, {1: (5, 6), 2: (5, 5)})
    trace = []
    assert reducible(a, db, trace)
    assert trace == [
        f"reduce axle={a.digest()} trail=- config=edge66 image=[1, 2]",
        f"reduce axle={c1.digest()} trail=1:5 config=edge56 image=[1, 2]",
        f"reduce axle={c11.digest()} trail=1:5,2:5 config=dot5 image=[1]",
        f"reduce axle={c2.digest()} trail=2:5 config=edge56 image=[1, 2]",
        f"reduce axle={c11.digest()} trail=2:5,1:5 config=dot5 image=[1]",
    ]


def test_decrement_tree_traces_keep_their_digest(fuzz_db):
    # the reducible trace of 700 seeded axles at d = 5..11 against the
    # fixture database and the fuzz database in both orders, against a
    # digest taken before the database scan skipped any configuration:
    # the first configuration found and its image at every node
    h = hashlib.sha256()
    nodes = 0
    for db in (load_database(CONFIGS_DB), fuzz_db, fuzz_db[::-1]):
        for d in range(5, 12):
            for s in range(100):
                trace = []
                try:
                    reducible(random_axle(d, s), db, trace)
                except ReducibilityFailure:
                    pass
                h.update("\n".join(trace + [""]).encode())
                nodes += len(trace)
    assert nodes == 4204
    assert h.hexdigest() == (
        "7e187fefc364ec4042fe45ec025b84b8df1a900c2d940432389989e4480e95eb")


def test_reducible_leaf_has_no_slack(db):
    trace = []
    assert reducible(ax(7, {1: (5, 5)}), db, trace)
    assert len(trace) == 1
    assert "config=dot5" in trace[0]


def test_reducible_failure_names_axle_and_trail(db):
    a = trivial_axle(7)
    trace = []
    with pytest.raises(ReducibilityFailure) as e:
        reducible(a, [], trace)
    assert e.value.axle == a
    assert e.value.trail == ()
    assert a.digest() in str(e.value)
    assert trace == [f"reduce fail axle={a.digest()} trail=-"]


def test_reducible_failure_deep_in_the_tree(db):
    # edge66 disposes the root, the tightened children have nothing
    a = ax(7, {1: (5, 6), 2: (6, 6)})
    with pytest.raises(ReducibilityFailure) as e:
        reducible(a, db[:1])
    assert e.value.trail == ((1, 5),)
