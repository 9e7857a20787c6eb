"""Hubcap coverage, the closing inequality, and the bound certifier."""

import hashlib
import random

import pytest

from cartwheel_discharge.axles import trivial_axle
from cartwheel_discharge.errors import InputError, VerificationFailure
from cartwheel_discharge.hubcaps import (
    BoundContext,
    build_bound_context,
    check_bound,
    check_h2,
    check_hubcap,
    validate_hubcap,
)
from cartwheel_discharge.oracles import (brute_force_bound, random_axle,
                                         random_outlets)
from cartwheel_discharge.rules import (DerivedOutlet, Outlet, enforced,
                                       permitted)


def never(a):
    return False


def always(a):
    return True


def out(value, *entries):
    return Outlet(value, tuple(entries))


def ctx_for(outlets_with_spokes, reducer=never, trace=None):
    return BoundContext(tuple(outlets_with_spokes), reducer, trace)


def certify(positioned, v, a, reducer=never, trace=None):
    ctx = ctx_for(positioned, reducer, trace)
    check_bound(ctx, 0, [0] * len(positioned), v, a)


# ------------------------------------------------------------- coverage

def test_multiplicity_promotion():
    triples = [(1, 1, 0), (2, 3, 0), (2, 3, 0), (4, 5, 0)]
    assert validate_hubcap(triples, 5) == [1, 1, 1, 2]


def test_all_single_pairs_each_twice():
    triples = [(i, i, 0) for i in range(1, 8)]
    assert validate_hubcap(triples, 7) == [1] * 7


def test_cycle_cover_stays_unpromoted():
    triples = [(1, 2, 0), (2, 3, 0), (3, 1, 0)]
    assert validate_hubcap(triples, 3) == [1, 1, 1]


def test_uncovered_spoke_rejected():
    with pytest.raises(InputError, match=r"cover spokes \[3\]"):
        validate_hubcap([(1, 2, 0), (1, 2, 0)], 3)


def test_promotion_overshoot_rejected():
    # both ends promote, middle spoke then lands on four
    with pytest.raises(InputError, match=r"cover spokes \[2\]"):
        validate_hubcap([(1, 2, 0), (2, 3, 0)], 3)


def test_spoke_out_of_range_rejected():
    with pytest.raises(InputError, match="out of 1..5"):
        validate_hubcap([(0, 1, 0)], 5)
    with pytest.raises(InputError, match="out of 1..5"):
        validate_hubcap([(1, 6, 0)], 5)


def test_empty_hubcap_rejected():
    with pytest.raises(InputError, match="empty hubcap"):
        validate_hubcap([], 7)


# --------------------------------------------------- closing inequality

def test_h2_zero_sum_closes_high_degrees():
    triples = [(i, i, 0) for i in range(1, 8)]
    assert check_h2(triples, [1] * 7, 7)


def test_h2_positive_budget_scales_with_degree():
    # 10(6-d) leaves room for sum 20 at d=7 but not 22
    ok = [(1, 1, 20)] + [(i, i, 0) for i in range(2, 8)]
    assert check_h2(ok, [1] * 7, 7)
    too_big = [(1, 1, 22)] + [(i, i, 0) for i in range(2, 8)]
    assert not check_h2(too_big, [1] * 7, 7)


def test_h2_floor_division_on_odd_sums():
    # 21 // 2 == 10, still inside the d=7 budget
    triples = [(1, 1, 21)] + [(i, i, 0) for i in range(2, 8)]
    assert check_h2(triples, [1] * 7, 7)


def test_h2_negative_sum_floors_downward():
    # -19 // 2 == -10 cancels the d=5 deficit; truncation would not
    assert check_h2([(1, 2, -19)], [1], 5)
    assert not check_h2([(1, 2, -17)], [1], 5)


def test_h2_multiplicity_doubles_value():
    assert not check_h2([(1, 1, 11)], [2], 7)
    assert check_h2([(1, 1, 10)], [2], 7)


# --------------------------------------------------------- bound checks

def test_empty_context_certifies_nonnegative():
    a = trivial_axle(7)
    certify([], 0, a)
    with pytest.raises(VerificationFailure, match="forced value 0 exceeds"):
        certify([], -1, a)
    assert brute_force_bound(a, [], never) == 0


def test_mutually_exclusive_positives():
    a = trivial_axle(7)
    positioned = [(out(1, (1, 5, 6)), 1), (out(1, (1, 7, 8)), 1)]
    certify(positioned, 1, a)
    with pytest.raises(VerificationFailure):
        certify(positioned, 0, a)
    assert brute_force_bound(a, positioned, never) == 1


def test_enforced_negative_lowers_the_bound():
    a = trivial_axle(7)
    positioned = [(out(-1, (1, 5, 12)), 1)]
    certify(positioned, -1, a)
    with pytest.raises(VerificationFailure):
        certify(positioned, -2, a)
    assert brute_force_bound(a, positioned, never) == -1


def test_overlapping_positives_can_stack():
    a = trivial_axle(7)
    positioned = [(out(1, (1, 6, 6)), 1), (out(1, (1, 6, 7)), 1)]
    certify(positioned, 2, a)
    with pytest.raises(VerificationFailure):
        certify(positioned, 1, a)
    assert brute_force_bound(a, positioned, never) == 2


def test_reducer_escalation_rescues_overflow():
    a = trivial_axle(7)
    positioned = [(out(-1, (1, 5, 12)), 1)]
    trace = []
    certify(positioned, -2, a, reducer=always, trace=trace)
    assert any("overflow" in line for line in trace)
    assert brute_force_bound(a, positioned, always) is None


def test_exclusion_branch_prunes_contradicted_children():
    # excluding (1,6,6) then wedging down to spoke (6,6) contradicts it
    a = trivial_axle(7)
    positioned = [
        (out(1, (1, 6, 6)), 1),
        (out(1, (1, 6, 7)), 1),
        (out(1, (1, 5, 6)), 1),
    ]
    trace = []
    certify(positioned, 1, a, reducer=always, trace=trace)
    assert any(line.startswith("bound prune") for line in trace)


def test_trace_lines_carry_sign_vector_and_digest():
    a = trivial_axle(7)
    positioned = [(out(1, (1, 5, 6)), 1), (out(1, (1, 7, 8)), 1)]
    trace = []
    certify(positioned, 1, a, trace=trace)
    assert trace[0] == (
        f"bound p=0 s=11 f=0 a=2 v=1 axle={a.digest()}")
    assert all(set(line.split("s=")[1].split()[0]) <= set("012")
               for line in trace if line.startswith("bound p="))


def test_bound_traces_keep_their_digest():
    # brute_force_bound stops at 16 outlets; pooled tables place 28-54.
    # So searches over 20-54 placements are pinned by a digest of every
    # trace line and outcome instead, with the reducer stubs of the
    # exhaustive-oracle test and v swept from below the forced value to
    # the sum of every permitted positive outlet.
    stubs = (
        lambda b: False,
        lambda b: True,
        lambda b: sum(b.lo[1:b.d + 1]) >= 5 * b.d + b.d // 2,
        lambda b: sum(1 for i in range(1, b.d + 1)
                      if b.lo[i] == b.hi[i]) >= 2,
    )
    h = hashlib.sha256()
    seen = {"ok": 0, "failed": 0, "bound prune": 0, "bound overflow": 0}
    for d in range(7, 12):
        rng = random.Random(f"bound-digest-{d}")
        pool = random_outlets(d, ("bound-digest", d), 60)
        for inst in range(30):
            a = random_axle(d, ("bound-digest", d, inst))
            positioned = tuple(
                (pool[rng.randrange(60)], rng.randrange(1, d + 1))
                for _ in range(rng.randrange(20, 55)))
            f = sum(o.value for o, x in positioned if enforced(a, o, x))
            top = f + sum(o.value for o, x in positioned if o.value > 0
                          and not enforced(a, o, x) and permitted(a, o, x))
            for v in sorted({f - 1, f, (f + top) // 2, top - 1, top}):
                trace = []
                ctx = BoundContext(positioned, stubs[inst % 4], trace)
                try:
                    check_bound(ctx, 0, [0] * len(positioned), v, a)
                    outcome = "ok"
                except VerificationFailure as e:
                    outcome = f"{type(e).__name__}: {e}"
                seen["ok" if outcome == "ok" else "failed"] += 1
                for line in trace:
                    h.update(line.encode() + b"\n")
                    for kind in ("bound prune", "bound overflow"):
                        seen[kind] += line.startswith(kind)
                h.update(outcome.encode() + b"\n")
    assert min(seen.values()) > 100
    assert h.hexdigest() == (
        "c732b979816f12c4442ccb8a8c4a52d9b739f3b13babb3c8fd4c6902804ccf41")


# ------------------------------------------------------- context layout

def test_context_order_is_table_major_with_x_first():
    a_out = out(1, (1, 5, 6))
    b_out = out(-1, (2, 6, 6))
    table = [DerivedOutlet(1, "T", a_out), DerivedOutlet(2, "T'", b_out)]
    ctx = build_bound_context(table, 2, 5, never)
    assert ctx.positioned == ((a_out, 2), (a_out, 5), (b_out, 2), (b_out, 5))
    assert ctx.values == (1, 1, -1, -1)


def test_context_single_copy_when_spokes_coincide():
    a_out = out(1, (1, 5, 6))
    table = [DerivedOutlet(1, "T", a_out)]
    ctx = build_bound_context(table, 3, 3, never)
    assert ctx.positioned == ((a_out, 3),)


# ------------------------------------------------------- whole hubcaps

def zero_triples(d):
    return [(i, i, 0) for i in range(1, d + 1)]


def test_check_hubcap_zero_values_close_degree_seven():
    a = trivial_axle(7)
    check_hubcap(a, zero_triples(7), [], never)


def test_check_hubcap_rejects_failing_inequality():
    a = trivial_axle(7)
    triples = [(1, 1, 50)] + [(i, i, 0) for i in range(2, 8)]
    with pytest.raises(VerificationFailure, match="hubcap sum 50 fails"):
        check_hubcap(a, triples, [], never)


def test_check_hubcap_traces_triples_in_order():
    a = trivial_axle(7)
    table = [DerivedOutlet(1, "T", out(1, (1, 5, 6))),
             DerivedOutlet(2, "T'", out(-1, (2, 6, 6)))]
    triples = [(i, i, 1) for i in range(1, 8)]
    trace = []
    check_hubcap(a, triples, table, never, trace=trace)
    heads = [t for t in trace if t.startswith("hubcap triple")]
    assert heads == [f"hubcap triple {i} {i} 1" for i in range(1, 8)]
    assert trace[0] == heads[0] and trace[1].startswith("bound p=0")
    # a hubcap whose last triple fails leaves no lines behind
    failing = triples[:-1] + [(7, 7, -2)]
    trace = []
    with pytest.raises(VerificationFailure, match="exceeds bound -2"):
        check_hubcap(a, failing, table, never, trace=trace)
    assert trace == []


def test_check_hubcap_reports_first_failure():
    a = trivial_axle(7)
    table = [DerivedOutlet(1, "T", out(-1, (1, 5, 12)))]
    triples = ([(1, 1, -2), (2, 2, -3)]
               + [(i, i, 0) for i in range(3, 8)])
    with pytest.raises(VerificationFailure, match="exceeds bound -2") as e:
        check_hubcap(a, triples, table, never)
    assert "bound -3" not in str(e.value)
