"""Rule parsing and the placement of template vertices into cartwheel
positions.  Expected positions are worked out by hand from the
rotation system and frozen here."""

import pytest

from cartwheel_discharge.errors import InputError, InternalInvariantError
from cartwheel_discharge.rules import (DerivedOutlet, Outlet, RuleSpec,
                                       cartwheel_rotation, derive_outlets,
                                       diff_outlet_tables,
                                       format_outlet_table,
                                       parse_outlet_table, parse_rules,
                                       validate_outlet)

from _fixtures import OUTLETS_DEMO_7, RULES_DEMO


def rows(text, d):
    return derive_outlets(parse_rules(text), d)


def entries(text, d, which=0):
    return rows(text, d)[which].outlet.entries


# ---------------------------------------------------------------- parsing

def test_parse_accepts_comments_and_blanks():
    specs = parse_rules("# c\n\nrule 5 12 6 6\n")
    assert len(specs) == 1
    assert specs[0].bounds == ((0, 5, 12), (1, 6, 6))
    assert specs[0].line == 3


@pytest.mark.parametrize("bad,frag", [
    ("regel 5 12 5 12", "expected 'rule'"),
    ("rule 5 12 5", "4 bounds"),
    ("rule 5 12 5 12 2 6", "4 bounds"),
    ("rule 5 12 5 x", "non-integer"),
    ("rule 5 12 5 12 2 6 6 2 7 7", "duplicate vertex"),
    ("rule 5 12 5 12 17 6 6", "outside 2..16"),
    ("rule 5 12 5 12 2 4 6", "violate"),
    ("rule 5 12 5 12 2 8 7", "violate"),
    ("rule 5 12 5 12 4 6 6", "parent"),
])
def test_parse_rejects_malformed_rules(bad, frag):
    with pytest.raises(InputError) as e:
        parse_rules(bad)
    assert frag in str(e.value)


# ------------------------------------------------------------- embeddings

def test_two_vertex_rule_places_the_other_endpoint_at_spoke_one():
    # T keeps the hub's own bounds off the outlet; T' likewise
    table = rows("rule 7 12 5 8\n", 7)
    assert [(r.rule_index, r.kind, r.outlet.value) for r in table] == [
        (1, "T", 1), (1, "T'", -1)]
    assert table[0].outlet.entries == ((1, 7, 12),)
    assert table[1].outlet.entries == ((1, 5, 8),)


def test_hub_bounds_gate_the_degree():
    text = "rule 7 12 5 8\n"
    for d in range(5, 12):
        kinds = [r.kind for r in rows(text, d)]
        assert ("T" in kinds) == (5 <= d <= 8)
        assert ("T'" in kinds) == (7 <= d <= 12)


def test_t_embedding_positions_by_hand():
    # v2 lands on spoke 2, v4 on the first hat, v12 on spoke 1's
    # lowest fan (the rule pins spoke 1 to 6)
    text = "rule 6 6 7 12 2 5 8 4 6 12 12 5 6\n"
    for d in (7, 9, 11):
        (row,) = rows(text, d)
        assert row.kind == "T"
        assert row.outlet.entries == (
            (1, 6, 6), (2, 5, 8), (d + 1, 6, 12), (2 * d + 1, 5, 6))


def test_t_prime_embedding_positions_by_hand():
    # under T' the walk runs the other way around the hub: v2 lands on
    # spoke d, v4 on spoke d-1, v12 on spoke d-2
    text = "rule 6 6 7 12 2 5 8 4 6 12 12 5 6\n"
    (row,) = rows(text, 6)
    assert row.kind == "T'"
    assert row.outlet.value == -1
    assert row.outlet.entries == ((1, 7, 12), (4, 5, 6), (5, 6, 12), (6, 5, 8))


def test_deep_template_slots_walk_hats_and_fans():
    # v8 = third corner of (v4, v2): a fan of spoke 2 under T when
    # spoke 2 is pinned, the hat before spoke d under T'
    text = "rule 5 12 5 12 2 6 6 4 5 12 8 5 7\n"
    for d in (5, 7, 11):
        t, tp = rows(text, d)
        assert t.outlet.entries == ((2, 6, 6), (2 * d + 2, 5, 7))
        assert tp.outlet.entries == ((d, 6, 6), (2 * d - 1, 5, 7))


def test_rule_that_runs_off_the_known_drawing_is_rejected():
    # v8 needs spoke 2 pinned under T; (5,8) leaves it loose
    text = "rule 5 12 5 12 2 5 8 4 5 12 8 5 7\n"
    with pytest.raises(InputError) as e:
        rows(text, 7)
    assert "does not embed" in str(e.value)


def test_rule_with_colliding_slots_is_rejected():
    # with spoke 1 pinned at 5 both v5 and v12 land on hat 2d
    text = "rule 5 5 5 12 2 5 12 3 5 12 4 5 12 5 6 7 12 6 8\n"
    with pytest.raises(InputError) as e:
        rows(text, 7)
    assert "collides" in str(e.value)


@pytest.mark.parametrize("p, pins", [
    (2 * 7 + 1, {}),           # spoke 1 open
    (2 * 7 + 1, {1: 5}),       # a degree-5 spoke has no fans
    (3 * 7 + 1, {1: 6}),       # a degree-6 spoke has one fan row
    (4 * 7 + 3, {1: 8, 3: 7}),
], ids=["open", "five", "row-above-six", "row-above-seven"])
def test_a_fan_without_its_pinned_spoke_is_an_engine_fault(p, pins):
    # no caller asks for such a fan: the skeleton adds fan rows of
    # pinned spokes only, and _embed reaches fans through the rotations
    # that list them, so this is exit 3, not bad input
    with pytest.raises(InternalInvariantError,
                       match=f"fan position {p} without a pinned spoke"):
        cartwheel_rotation(p, pins, 7)


def test_demo_table_matches_hand_derivation():
    table = rows(RULES_DEMO, 7)
    assert format_outlet_table(table) == OUTLETS_DEMO_7


def test_derived_outlets_validate():
    for d in range(5, 12):
        for row in rows(RULES_DEMO, d):
            assert validate_outlet(row.outlet, d) == []


def test_validate_outlet_flags():
    assert ("T1", 99) in [v for v in validate_outlet(
        Outlet(1, ((99, 6, 6),)), 7)]
    assert ("T2", 1) in validate_outlet(Outlet(1, ((1, 8, 6),)), 7)
    assert ("T3", 1) in validate_outlet(Outlet(1, ((1, 6, 9),)), 7)
    # fan entry without its pinning spoke entry
    assert ("T4", 15) in validate_outlet(Outlet(1, ((15, 5, 6),)), 7)
    assert validate_outlet(Outlet(1, ((1, 6, 6), (15, 5, 6))), 7) == []
    assert ("reduced", 2) in validate_outlet(Outlet(1, ((2, 5, 12),)), 7)
    assert ("value", 0) in validate_outlet(Outlet(0, ((1, 6, 6),)), 7)


# ----------------------------------------------------------------- mirror

# Mirror image of a rule: these template slots swap under reflection,
# all others are fixed.
MIRROR_SLOTS = {2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6, 8: 9, 9: 8,
                10: 11, 11: 10, 12: 14, 14: 12}


def mirror_rule_spec(spec):
    bounds = sorted((MIRROR_SLOTS.get(s, s), b, e) for s, b, e in spec.bounds)
    # keep v0, v1 first, then ascending
    return RuleSpec(tuple(bounds), spec.line)


def _mu(p, d):
    # mirror position map: reflect within the band, then rotate once
    if p <= d:
        s = d + 1 - p
    elif p < 2 * d:
        s = 3 * d - p
    elif p == 2 * d:
        s = 2 * d
    else:
        j = (p - 1) // d
        i = (p - 1) % d + 1
        return j * d + _mu(i, d)
    return s + 1 if (s - 1) % d + 1 < d else s + 1 - d


def test_mirrored_rules_derive_mirrored_outlets():
    for spec in parse_rules(RULES_DEMO):
        if any(s in (13, 15, 16) for s in spec.slots):
            continue
        mirrored = mirror_rule_spec(spec)
        for d in range(5, 12):
            orig = derive_outlets([spec], d)
            mirr = derive_outlets([mirrored], d)
            assert len(orig) == len(mirr)
            for a, b in zip(orig, mirr):
                assert a.kind == b.kind
                assert a.outlet.value == b.outlet.value
                mapped = sorted((_mu(p, d), lo, hi)
                                for p, lo, hi in a.outlet.entries)
                assert mapped == sorted(b.outlet.entries)


# ------------------------------------------------------------ table files

def test_outlet_table_roundtrip():
    table = rows(RULES_DEMO, 9)
    text = format_outlet_table(table)
    back = parse_outlet_table(text)
    assert diff_outlet_tables(table, back) == []


def test_table_diff_reports_rows_and_lengths():
    table = rows(RULES_DEMO, 7)
    other = list(table)
    other[2] = DerivedOutlet(2, "T", Outlet(1, ((1, 8, 12),)))
    diffs = diff_outlet_tables(table, other)
    assert len(diffs) == 1 and diffs[0].startswith("row 3:")
    assert "extra rows" in diff_outlet_tables(table, table[:-1])[0]
    assert "extra rows" in diff_outlet_tables(table[:-1], table)[0]


def test_parse_outlet_table_rejects_junk():
    with pytest.raises(InputError):
        parse_outlet_table("outlet 1 X 1 1 6 6\n")
    with pytest.raises(InputError):
        parse_outlet_table("outlet 1 T 1 1 6\n")
    with pytest.raises(InputError):
        parse_outlet_table("nonsense\n")
