"""Discharging rules and their degree-d outlets.

A rule file line lists bound pairs for the template vertices v0, v1
and any subset of v2..v16.  The template fixes, for each vertex,
the directed edge whose clockwise third corner it is:

    v2=(v0,v1)  v3=(v1,v0)  v4=(v0,v2)   v5=(v3,v0)   v6=(v2,v1)
    v7=(v1,v3)  v8=(v4,v2)  v9=(v3,v5)   v10=(v8,v2)  v11=(v3,v9)
    v12=(v0,v4) v13=(v0,v12) v14=(v5,v0) v15=(v6,v1)  v16=(v15,v1)

Each rule yields up to two outlets per degree d: T places the hub at
v1 (value +1, charge arrives) and T' places it at v0 (value -1,
charge leaves).  The other endpoint sits at spoke 1 and the remaining
vertices are walked into cartwheel positions through the rotation
system of a generic cartwheel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .axles import Axle, band_of, fan_row, is_fan_free, spoke_of
from .errors import InputError, InternalInvariantError, integers, records

RULE_PARENTS = {
    2: (0, 1), 3: (1, 0), 4: (0, 2), 5: (3, 0), 6: (2, 1),
    7: (1, 3), 8: (4, 2), 9: (3, 5), 10: (8, 2), 11: (3, 9),
    12: (0, 4), 13: (0, 12), 14: (5, 0), 15: (6, 1), 16: (15, 1),
}


@dataclass(frozen=True)
class RuleSpec:
    bounds: tuple  # ((slot, beta, delta), ...) with slots 0 and 1 first
    line: int = 0

    def slot_bounds(self, slot):
        for s, b, e in self.bounds:
            if s == slot:
                return (b, e)
        return None

    @property
    def slots(self):
        return [s for s, _, _ in self.bounds]


@dataclass(frozen=True)
class Outlet:
    value: int
    entries: tuple  # ((position, lo, hi), ...) ascending by position

    @cached_property
    def _compiled(self) -> dict:
        return {}

    def masks(self, x: int, d: int):
        """Kernel masks of the outlet placed at spoke x, degree d;
        compiled at first use."""
        got = self._compiled.get((x, d))
        if got is None:
            got = self._compiled[x, d] = _kernels.compile_outlet(
                self.entries, x, d)
        return got


@dataclass(frozen=True)
class DerivedOutlet:
    rule_index: int  # 1-based position in the rules file
    kind: str        # "T" or "T'"
    outlet: Outlet


def parse_rules(text):
    """Parse a rules file into RuleSpecs, in file order."""
    rules = []
    for lineno, parts in records(text):
        if parts[0] != "rule":
            raise InputError(f"expected 'rule', got {parts[0]!r}", lineno)
        nums = integers(parts[1:], "non-integer field in rule", lineno)
        if len(nums) < 4 or (len(nums) - 4) % 3 != 0:
            raise InputError("rule needs 4 bounds plus (index lo hi) triples",
                             lineno)
        bounds = [(0, nums[0], nums[1]), (1, nums[2], nums[3])]
        for t in range(4, len(nums), 3):
            bounds.append((nums[t], nums[t + 1], nums[t + 2]))
        seen = set()
        for s, b, e in bounds:
            if s in seen:
                raise InputError(f"duplicate vertex index {s}", lineno)
            seen.add(s)
            if s not in (0, 1) and s not in RULE_PARENTS:
                raise InputError(f"vertex index {s} outside 2..16", lineno)
            if not 5 <= b <= e <= 12:
                raise InputError(f"bounds ({b},{e}) for v{s} violate 5<=lo<=hi<=12",
                                 lineno)
        for s in seen:
            if s in (0, 1):
                continue
            for parent in RULE_PARENTS[s]:
                if parent not in seen:
                    raise InputError(
                        f"vertex {s} listed but its parent {parent} is absent",
                        lineno)
        rules.append(RuleSpec(tuple(bounds), lineno))
    return rules


def cartwheel_rotation(p, pins, d):
    """Known clockwise neighbor list around position p, and whether it
    is the complete (cyclic) rotation.

    pins maps spoke index -> pinned degree.  The hub always has its
    full rotation; a spoke only if pinned; hats and fans are boundary
    vertices of the cartwheel, their lists are partial and linear.
    """
    if p == 0:
        return list(range(d, 0, -1)), True
    band = band_of(p, d)
    i = spoke_of(p, d)
    prev_s = i - 1 if i > 1 else d
    next_s = i + 1 if i < d else 1
    hat_a = d + i
    hat_b = d + prev_s
    if band == "spoke":
        k = pins.get(i)
        if k is None:
            return [hat_b, prev_s, 0, next_s, hat_a], False
        if k == 5:
            return [prev_s, 0, next_s, hat_a, hat_b], True
        fans = [j * d + i for j in range(k - 4, 1, -1)]
        return [prev_s, 0, next_s, hat_a] + fans + [hat_b], True
    if band == "hat":
        # p = d+i lies between spokes i and next_s
        row = []
        k = pins.get(i)
        if k is not None:
            row.append((k - 4) * d + i if k >= 6 else hat_b)
        row += [i, next_s]
        k2 = pins.get(next_s)
        if k2 is not None:
            row.append(2 * d + next_s if k2 >= 6 else d + next_s)
        return row, False
    # fan row j on spoke i
    j = fan_row(p, d)
    k = pins.get(i)
    if k is None or j > k - 4:
        # the skeleton adds fan rows of pinned spokes only, and _embed
        # reaches a fan only through a rotation that lists it
        raise InternalInvariantError(
            f"fan position {p} without a pinned spoke {i}")
    down = (j - 1) * d + i if j > 2 else hat_b
    up = (j + 1) * d + i if j < k - 4 else hat_a
    return [down, i, up], False


def cartwheel_third(a, b, pins, d):
    """Clockwise third corner of directed edge (a, b): the successor
    of b in a's rotation.  None when it runs off the known part."""
    rot, cyclic = cartwheel_rotation(a, pins, d)
    if b not in rot:
        return None
    t = rot.index(b)
    if t + 1 < len(rot):
        return rot[t + 1]
    return rot[0] if cyclic else None


def _embed(spec: RuleSpec, hub_slot, d):
    """Map template slots to cartwheel positions with the hub at
    hub_slot and the other endpoint at spoke 1."""
    other = 1 - hub_slot
    pos = {hub_slot: 0, other: 1}
    pins = {}
    b, e = spec.slot_bounds(other)
    if b == e:
        pins[1] = b
    for s in sorted(spec.slots):
        if s in (0, 1):
            continue
        pa, pb = RULE_PARENTS[s]
        p = cartwheel_third(pos[pa], pos[pb], pins, d)
        if p is None or not 1 <= p <= 5 * d:
            raise InputError(f"v{s} does not embed at degree {d}", spec.line)
        if p in pos.values():
            raise InputError(
                f"v{s} collides at position {p} (degree {d})", spec.line)
        pos[s] = p
        if band_of(p, d) == "spoke":
            b, e = spec.slot_bounds(s)
            if b == e:
                pins[spoke_of(p, d)] = b
    return pos


def derive_outlets(rules, d):
    """All outlets of degree d, rules in file order, T before T'."""
    if not 5 <= d <= 11:
        raise InputError(f"degree {d} out of range 5..11")
    table = []
    for index, spec in enumerate(rules, start=1):
        for kind, hub_slot, value in (("T", 1, 1), ("T'", 0, -1)):
            hb, he = spec.slot_bounds(hub_slot)
            if not hb <= d <= he:
                continue
            pos = _embed(spec, hub_slot, d)
            entries = []
            for s, b, e in spec.bounds:
                if s == hub_slot or (b, e) == (5, 12):
                    continue
                entries.append((pos[s], b, e))
            entries.sort()
            outlet = Outlet(value, tuple(entries))
            problems = validate_outlet(outlet, d)
            if problems:
                raise InputError(f"derived {kind} outlet invalid at degree "
                                 f"{d}: {problems}", spec.line)
            table.append(DerivedOutlet(index, kind, outlet))
    return table


def validate_outlet(outlet: Outlet, d):
    """T1..T4 plus reducedness; returns the violated clause tags."""
    bad = []
    positions = [p for p, _, _ in outlet.entries]
    for p, lo, hi in outlet.entries:
        if not 1 <= p <= 5 * d:
            bad.append(("T1", p))
        if lo > hi:
            bad.append(("T2", p))
        if lo not in (5, 6, 7, 8, 9) or hi not in (5, 6, 7, 8, 12):
            bad.append(("T3", p))
        if 1 <= p <= 5 * d and band_of(p, d) == "fan":
            i = spoke_of(p, d)
            j = fan_row(p, d)
            ok = any(q == i and l == u >= j + 4 for q, l, u in outlet.entries)
            if not ok:
                bad.append(("T4", p))
        if (lo, hi) == (5, 12):
            bad.append(("reduced", p))
    if len(set(positions)) != len(positions):
        bad.append(("reduced", -1))
    if outlet.value == 0:
        bad.append(("value", 0))
    return bad


def enforced(a: Axle, outlet: Outlet, x: int) -> bool:
    """Outlet positioned at spoke x fires on every cartwheel of a."""
    return _kernels.outlet_enforced(a.packed, outlet.masks(x, a.d))


def permitted(a: Axle, outlet: Outlet, x: int) -> bool:
    """Outlet positioned at spoke x fires on at least one refinement."""
    return _kernels.outlet_permitted(a.packed, outlet.masks(x, a.d))


def axle_wedge_outlet(a: Axle, outlet: Outlet, x: int):
    """Tighten a by the outlet's entries at position x; None iff not
    permitted (the two are equivalent, and tested so)."""
    got = _kernels.outlet_wedge(a.packed, outlet.masks(x, a.d))
    if got is None:
        return None
    return Axle.from_packed(a.d, got)


def outlet_from_axle(b: Axle) -> Outlet:
    if not is_fan_free(b):
        raise InputError("outlet extraction requires a fan-free axle")
    entries = []
    for n in range(1, 5 * b.d + 1):
        if (b.lo[n], b.hi[n]) != (5, 12):
            entries.append((n, b.lo[n], b.hi[n]))
    return Outlet(1, tuple(entries))


def format_outlet_table(table):
    lines = []
    for row in table:
        flat = " ".join(f"{p} {lo} {hi}" for p, lo, hi in row.outlet.entries)
        line = f"outlet {row.rule_index} {row.kind} {row.outlet.value}"
        lines.append(line + (" " + flat if flat else ""))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_outlet_table(text):
    table = []
    for lineno, parts in records(text):
        if parts[0] != "outlet" or len(parts) < 4:
            raise InputError("expected 'outlet <rule> <T|T'> <value> ...'",
                             lineno)
        if parts[2] not in ("T", "T'"):
            raise InputError(f"kind must be T or T', got {parts[2]!r}", lineno)
        index, value, *nums = integers(
            parts[1:2] + parts[3:], "non-integer field in outlet line", lineno)
        if len(nums) % 3 != 0:
            raise InputError("outlet entries must be (pos lo hi) triples",
                             lineno)
        entries = tuple(
            (nums[t], nums[t + 1], nums[t + 2]) for t in range(0, len(nums), 3))
        table.append(DerivedOutlet(index, parts[2], Outlet(value, entries)))
    return table


def diff_outlet_tables(derived, golden):
    """Human-readable mismatch lines; empty when equal."""
    out = []
    for t, (have, want) in enumerate(zip(derived, golden)):
        if (have.rule_index, have.kind, have.outlet) != (
                want.rule_index, want.kind, want.outlet):
            out.append(f"row {t + 1}: derived "
                       f"{have.rule_index} {have.kind} {have.outlet.value} "
                       f"{have.outlet.entries} != golden "
                       f"{want.rule_index} {want.kind} {want.outlet.value} "
                       f"{want.outlet.entries}")
    if len(derived) > len(golden):
        out.append(f"derived has {len(derived) - len(golden)} extra rows")
    if len(golden) > len(derived):
        out.append(f"golden has {len(golden) - len(derived)} extra rows")
    return out
