"""Acceptance suite: one test per contract item, each timed against its
budget and printing a single pass line (run with -s to see them live).
"""

import random
import time

import pytest

from _fixtures import (
    CONFIGS_DB,
    CONFIGS_EMPTY,
    CONFIGS_SMALL,
    PRESENT_ZERO_7,
    RULES_DEMO,
    RULES_EMPTY,
    int_mutants,
    make_config,
    question_problems,
    ring_corners,
    run_cli,
    write,
)
from cartwheel_discharge.axles import (
    Axle,
    axle_wedge_condition,
    condition_compatible,
    negate_condition,
    symmetry_permutation,
    trivial_axle,
    validate_axle,
)
from cartwheel_discharge.configurations import (
    build_good_configuration,
    centers,
    enhance,
    load_database,
    parse_configurations,
)
from cartwheel_discharge.errors import VerificationFailure
from cartwheel_discharge.hubcaps import BoundContext, check_bound
from cartwheel_discharge.oracles import (
    brute_force_bound,
    brute_force_subconfig,
    random_axle,
    random_outlets,
    reflect_axle,
    rotate_axle,
)
from cartwheel_discharge.reducibility import (
    reducible,
    semi_reducible,
    skeleton_of,
)
from cartwheel_discharge.rules import (
    axle_wedge_outlet,
    enforced,
    outlet_from_axle,
    permitted,
)


def _done(name, budget, t0):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{name}: {elapsed:.2f}s over the {budget}s budget"
    print(f"acceptance {name}: pass in {elapsed:.2f}s (budget {budget}s)")


def ax(d, pins):
    base = trivial_axle(d)
    lo = bytearray(base.lo)
    hi = bytearray(base.hi)
    for p, (l, u) in pins.items():
        lo[p] = l
        hi[p] = u
    return Axle(d, bytes(lo), bytes(hi))


def strip_fans(a):
    lo = bytearray(a.lo)
    hi = bytearray(a.hi)
    for n in range(2 * a.d + 1, 5 * a.d + 1):
        lo[n] = 5
        hi[n] = 12
    return Axle(a.d, bytes(lo), bytes(hi))


def test_axle_algebra_suite():
    t0 = time.perf_counter()
    for d in range(5, 12):
        rng = random.Random(f"axle-suite-{d}")
        ident = tuple(range(2 * d + 1))
        sigma = symmetry_permutation(0, 1, d)
        assert tuple(sigma[sigma[j]] for j in ident) == ident
        tau = symmetry_permutation(1, 0, d)
        walked = list(ident)
        for _ in range(d):
            walked = [tau[j] for j in walked]
        assert tuple(walked) == ident

        for t in range(400):
            a = random_axle(d, ("axle-suite", d, t))
            assert validate_axle(a) == []
            if t % 4 == 0:
                b = strip_fans(a)
                r = b
                for _ in range(d):
                    r = rotate_axle(r)
                assert r == b
                assert reflect_axle(reflect_axle(b)) == b
                k = rng.randrange(d)
                eps = rng.randrange(2)
                perm = symmetry_permutation(k, eps, d)
                img = reflect_axle(b) if eps else b
                for _ in range(k):
                    img = rotate_axle(img)
                assert all(img.bounds(perm[j]) == b.bounds(j)
                           for j in range(2 * d + 1))
            for _ in range(25):
                n = rng.randrange(1, 5 * d + 1)
                m = rng.choice((-8, -7, -6, -5, 6, 7, 8, 9))
                c = (n, m)
                nc = negate_condition(c)
                assert negate_condition(nc) == c
                comp = condition_compatible(a, c)
                ncomp = condition_compatible(a, nc)
                if comp:
                    w = axle_wedge_condition(a, c)
                    assert validate_axle(w) == []
                    assert a.lo[n] <= w.lo[n] and w.hi[n] <= a.hi[n]
                    assert (w.lo[n], w.hi[n]) != (a.lo[n], a.hi[n])
                if comp and ncomp:
                    w1 = axle_wedge_condition(a, c)
                    w2 = axle_wedge_condition(a, nc)
                    halves = sorted([(w1.lo[n], w1.hi[n]),
                                     (w2.lo[n], w2.hi[n])])
                    assert halves[0][0] == a.lo[n]
                    assert halves[1][1] == a.hi[n]
                    assert halves[0][1] + 1 == halves[1][0]
    _done("axle-algebra", 5, t0)


def test_outlet_suite():
    t0 = time.perf_counter()
    for d in range(5, 12):
        rng = random.Random(f"outlet-suite-{d}")
        axles = [random_axle(d, ("os", d, t)) for t in range(300)]
        outs = random_outlets(d, ("os-o", d), 1200)
        for t in range(100_000):
            a = axles[rng.randrange(300)]
            o = outs[rng.randrange(1200)]
            x = rng.randrange(1, d + 1)
            w = axle_wedge_outlet(a, o, x)
            p = permitted(a, o, x)
            assert (w is not None) == p
            e = enforced(a, o, x)
            if e:
                assert p and w == a
            if w is not None:
                assert enforced(w, o, x)
                assert axle_wedge_outlet(w, o, x) == w
            if t % 8 == 0:
                n = rng.randrange(1, 2 * d + 1)
                m = rng.choice((-8, -7, -6, -5, 6, 7, 8, 9))
                if condition_compatible(a, (n, m)):
                    b = axle_wedge_condition(a, (n, m))
                    if not p:
                        assert not permitted(b, o, x)
                    if e:
                        assert enforced(b, o, x)
        for a in axles[:150]:
            b = strip_fans(a)
            assert axle_wedge_outlet(trivial_axle(d), outlet_from_axle(b),
                                     1) == b
    _done("outlet-suite", 30, t0)


def test_check_bound_matches_the_exhaustive_oracle():
    t0 = time.perf_counter()
    escalations = 0
    outcomes = {"pos": 0, "zero": 0, "neg": 0, "none": 0}
    for d in range(5, 12):
        rng = random.Random(f"cb-pick-{d}")
        pool = random_outlets(d, ("cb", d), 300)
        stubs = (
            lambda b: False,
            lambda b: True,
            lambda b: sum(b.lo[1:b.d + 1]) >= 5 * b.d + b.d // 2,
            lambda b: sum(1 for i in range(1, b.d + 1)
                          if b.lo[i] == b.hi[i]) >= 2,
        )
        for inst in range(500):
            a = random_axle(d, ("cb-a", d, inst))
            chosen = []
            for _ in range(rng.randrange(0, 13)):
                if chosen and rng.random() < 0.2:
                    chosen.append(chosen[rng.randrange(len(chosen))])
                else:
                    chosen.append((pool[rng.randrange(300)],
                                   rng.randrange(1, d + 1)))
            free = [t for t, (o, x) in enumerate(chosen)
                    if o.value > 0 and not enforced(a, o, x)
                    and permitted(a, o, x)]
            for t in reversed(free[6:]):
                del chosen[t]
            positioned = tuple(chosen)
            reducer = stubs[inst % 4]
            oracle = brute_force_bound(a, positioned, reducer)
            outcomes["none" if oracle is None else
                     "neg" if oracle < 0 else
                     "zero" if oracle == 0 else "pos"] += 1
            sweep = ((-3, True), (0, True)) if oracle is None else \
                ((oracle - 1, False), (oracle, True), (oracle + 1, True))
            for v, good in sweep:
                trace = []
                ctx = BoundContext(positioned, reducer, trace)
                s = [0] * len(positioned)
                if good:
                    check_bound(ctx, 0, s, v, a)
                else:
                    with pytest.raises(VerificationFailure):
                        check_bound(ctx, 0, s, v, a)
                escalations += sum(1 for x in trace
                                   if x.startswith("bound overflow"))
    assert escalations > 0
    assert outcomes["pos"] >= 500
    assert outcomes["zero"] >= 200
    assert outcomes["neg"] >= 20
    assert outcomes["none"] >= 500
    _done("bound-oracle-equivalence", 60, t0)


def test_placement_search_matches_the_exhaustive_oracle():
    t0 = time.perf_counter()
    db = load_database(CONFIGS_DB)
    extras = [build_good_configuration(make_config(f"dot{g}", {1: g}, {1: []}))
              for g in (6, 7, 8)]
    families = db + extras
    assert len(families) == 10

    pairs = 0
    for d in (5, 6, 7, 8):
        for s in range(5):
            a = random_axle(d, ("place", d, s))
            skel = skeleton_of(a)
            for gc in families:
                wanted = [f for f, wp
                          in brute_force_subconfig(gc.config, skel) if wp]
                got = semi_reducible(a, [gc])
                if got is None:
                    assert wanted == [], (a, gc.name)
                else:
                    assert got[0] is gc
                    assert got[1] in wanted, (a, gc.name)
                pairs += 1
    assert pairs == 200

    free = make_config("dot12", {1: 12}, {1: []})
    spots = brute_force_subconfig(free, skeleton_of(trivial_axle(7)))
    assert len(spots) == 14
    assert all(wp for _, wp in spots)
    _done("placement-oracle-equivalence", 60, t0)


def test_reducibility_loop_expands_the_expected_tree():
    t0 = time.perf_counter()
    db = load_database(CONFIGS_SMALL)
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
    _done("reducibility-loop", 5, t0)


def test_end_to_end_synthetic_battery(tmp_path):
    t0 = time.perf_counter()
    rules = write(tmp_path, "battery.rules", RULES_EMPTY)
    confs = write(tmp_path, "battery.confs", CONFIGS_EMPTY)
    pres = write(tmp_path, "battery.pres", PRESENT_ZERO_7)
    code, out, err = run_cli(["verify", "-d", "7", "-r", rules,
                              "-p", pres, "-c", confs])
    assert (code, err) == (0, "")
    assert out.startswith("verified: degree 7")

    mutants = list(int_mutants(PRESENT_ZERO_7))
    assert len(mutants) == 46
    for lineno, field, delta, text in mutants:
        tag = f"m{lineno}-{field}-{'p' if delta > 0 else 'n'}.pres"
        mpath = write(tmp_path, tag, text)
        code, out, err = run_cli(["verify", "-d", "7", "-r", rules,
                                  "-p", mpath, "-c", confs])
        if lineno == 1:
            # header degree disagrees with the requested degree
            assert code == 2, tag
            assert err.startswith(f"error: {mpath}:1:"), tag
        elif field == 0:
            # step level off by one
            assert code == 2, tag
            assert err.startswith(f"error: {mpath}:2:"), tag
        elif (field - 2) % 3 == 2:
            # bound value: raising it keeps a valid proof, lowering
            # it makes the branch undisposable
            if delta == 1:
                assert code == 0, tag
            else:
                assert code == 1, tag
                assert err.startswith("verification failed: line 2:"), tag
        else:
            # spoke index: coverage or range breaks
            assert code == 2, tag
            assert err.startswith(f"error: {mpath}:2:"), tag
    _done("end-to-end-battery", 30, t0)


def test_rules_and_configs_mutation_battery(tmp_path):
    # every +-1 integer mutant of a rules or configurations file keeps
    # to the exit-code contract, and bad input names the mutated file
    t0 = time.perf_counter()
    base = {"rules": RULES_DEMO, "confs": CONFIGS_DB, "pres": PRESENT_ZERO_7}
    paths = {ext: write(tmp_path, f"base.{ext}", text)
             for ext, text in base.items()}
    codes = {}
    for ext in ("rules", "confs"):
        for lineno, field, delta, text in int_mutants(base[ext]):
            mutant = write(tmp_path, f"m{lineno}-{field}-{delta}.{ext}",
                           text)
            files = dict(paths, **{ext: mutant})
            code, _, err = run_cli(["verify", "-d", "7", "-r", files["rules"],
                                    "-p", files["pres"], "-c", files["confs"]])
            assert code in (0, 1, 2) and "Traceback" not in err, mutant
            if code == 2:
                assert err.startswith(f"error: {mutant}"), err
            codes[ext, code] = codes.get((ext, code), 0) + 1
    assert codes == {("rules", 1): 29, ("rules", 2): 51,
                     ("confs", 1): 38, ("confs", 2): 120}
    _done("rules-configs-battery", 20, t0)


def test_configuration_database_properties():
    t0 = time.perf_counter()
    configs = parse_configurations(CONFIGS_DB)
    assert len(configs) == 7
    for cfg in configs:
        assert centers(cfg)
        assert all(g <= 11 for g in cfg.gamma.values())
    for gc in load_database(CONFIGS_DB):
        third, extra = enhance(gc.config)
        assert third == ring_corners(gc.config, extra)
        assert question_problems(gc.question, gc.config, third, extra) == []

    def renamed(k):
        return "".join(CONFIGS_DB.replace("config ", f"config r{t}")
                       for t in range(k))

    def clock(text):
        best = None
        for _ in range(3):
            s = time.perf_counter()
            load_database(text)
            e = time.perf_counter() - s
            best = e if best is None else min(best, e)
        return best

    small, big = renamed(5), renamed(20)
    assert len(load_database(big)) == 140
    ratio = clock(big) / clock(small)
    assert ratio < 12, f"4x larger database took {ratio:.1f}x longer"
    _done("configuration-database", 10, t0)


def test_external_table_track_is_waived():
    t0 = time.perf_counter()
    # no converter for the historically published rule and
    # configuration tables ships here; the CLI must still fail
    # cleanly when pointed at the missing files
    code, _, err = run_cli(["verify", "-d", "7",
                            "-r", "/data/published.rules",
                            "-p", "/data/published.pres",
                            "-c", "/data/published.confs"])
    assert code == 2
    assert err.startswith("error: /data/published.rules:")
    print("acceptance external-tables: waived (no conversion available)")
    _done("external-tables", 5, t0)
