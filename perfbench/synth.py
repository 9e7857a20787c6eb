"""Seeded synthesis of benchmark inputs: discharging rules, configuration
databases and proof scripts that the verifier accepts.

Everything here is a pure function of its seed.  The synthesizer walks
the axle tree of one hub degree.  At each branch it tries, in order:

1. ``R`` when the branch is reducible against the database;
2. ``S`` when the rotation or reflection of a pooled branch whose own
   proof is already closed covers the branch;
3. ``H`` with each spoke pair's tightest passing bound, found with
   ``check_bound`` by bisection, when the closing inequality holds;
4. otherwise a split on a condition taken from the guard of a positive
   outlet that is still permitted but not enforced, so that one half no
   longer permits it.

Every branch records how it was closed, so mutants that fail at a known
line can be cut from a passing script.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cartwheel_discharge.axles import (NULL_CONDITION, axle_wedge_condition,
                                       condition_compatible, is_fan_free,
                                       negate_condition, pos_add,
                                       symmetry_permutation, trivial_axle)
from cartwheel_discharge.configurations import (build_good_configuration,
                                                parse_configurations)
from cartwheel_discharge.errors import (InputError, ReducibilityFailure,
                                        VerificationFailure)
from cartwheel_discharge.hubcaps import build_bound_context, check_bound
from cartwheel_discharge.reducibility import reducible
from cartwheel_discharge.rules import (derive_outlets, enforced, parse_rules,
                                       permitted)

LO_VALUES = (5, 6, 7, 8, 9)
HI_VALUES = (5, 6, 7, 8, 12)


class Stuck(Exception):
    """The synthesizer could not close a branch within its limits."""


# ----------------------------------------------------------------- rules

# Template slots whose clockwise embedding needs no pinned spoke at every
# degree 7..11: v2 spoke 2, v3 spoke d, v4 hat(1,2), v5 hat(d,1),
# v6 spoke 3, v7 spoke d-1.
NEAR_SLOTS = (2, 3, 4, 5, 6, 7)
SPOKE_SLOTS = (2, 3, 6, 7)


def _interval(rng, spoke):
    if spoke and rng.random() < 0.55:
        k = rng.choice((5, 6, 6, 7, 8))
        return k, k
    while True:
        lo = rng.choice(LO_VALUES)
        hi = rng.choice([h for h in HI_VALUES if h >= lo])
        if (lo, hi) != (5, 12):
            return lo, hi


def random_rule(rng, d, sends):
    """One rule line for hub degree d.  A sending rule (`sends`) has its
    hub end at v0, so the hub gives charge away; otherwise the hub end
    is v1 and the hub receives from a small spoke 1."""
    hub = (d, 12) if rng.random() < 0.7 else (d, d)
    if sends:
        v0 = hub
        v1 = (rng.choice((7, 8, 9)), 12)
    else:
        v0 = rng.choice(((5, 5), (5, 5), (5, 6), (6, 6)))
        v1 = hub
    extra = []
    for s in rng.sample(NEAR_SLOTS, rng.randrange(0, 3)):
        lo, hi = _interval(rng, s in SPOKE_SLOTS)
        extra += [s, lo, hi]
    nums = [v0[0], v0[1], v1[0], v1[1]] + extra
    return "rule " + " ".join(str(x) for x in nums)


def random_rules(rng, d, count, send_share):
    """`count` rule lines that parse and derive at degree d."""
    lines = []
    while len(lines) < count:
        line = random_rule(rng, d, rng.random() < send_share)
        try:
            derive_outlets(parse_rules(line), d)
        except InputError:
            continue
        lines.append(line)
    return "\n".join(lines) + "\n"


# -------------------------------------------------------- configurations

# Small plane drawings, vertex -> clockwise neighbours.  Labels are drawn
# per configuration; a drawing whose labels do not complete is redrawn.
SHAPES = {
    "edge": {1: [2], 2: [1]},
    "tri": {1: [2, 3], 2: [3, 1], 3: [1, 2]},
    "path": {1: [2], 2: [3, 1], 3: [2]},
    "diamond": {1: [2, 3, 4], 2: [3, 1], 3: [4, 1, 2], 4: [1, 3]},
    "fan3": {1: [2, 3, 4, 5], 2: [3, 1], 3: [4, 1, 2], 4: [5, 1, 3],
             5: [1, 4]},
}


def config_text(name, shape, labels):
    rot = SHAPES[shape]
    out = [f"config {name} {len(rot)}"]
    for v in sorted(rot):
        nb = " ".join(str(u) for u in rot[v])
        out.append(f"v {v} {labels[v]} : {nb}".rstrip())
    out.append("end")
    return "\n".join(out) + "\n"


def config_ok(text):
    try:
        for cfg in parse_configurations(text):
            build_good_configuration(cfg)
    except InputError:
        return False
    return True


def random_configs(rng, count, shapes, labels, prefix):
    """`count` distinct configuration records that load."""
    out = []
    taken = set()
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 200 * count + 1000:
            raise Stuck("configuration space exhausted")
        shape = rng.choice(shapes)
        lab = {v: rng.choice(labels) for v in SHAPES[shape]}
        key = (shape, tuple(sorted(lab.items())))
        if key in taken:
            continue
        text = config_text(f"{prefix}{len(out)}", shape, lab)
        if not config_ok(text):
            taken.add(key)
            continue
        taken.add(key)
        out.append(text)
    return out


def load_db(text):
    return [build_good_configuration(c) for c in parse_configurations(text)]


# ---------------------------------------------------------- proof scripts

@dataclass
class Step:
    level: int
    kind: str
    payload: tuple
    # an H step whose branch the synthesizer found irreducible
    r_failed: bool = False


@dataclass
class PoolEntry:
    line: int
    level: int
    branch: object     # the axle the split's hi branch really had
    done: bool = False


@dataclass
class Script:
    degree: int
    steps: list = field(default_factory=list)

    def text(self):
        out = [f"degree {self.degree}"]
        for s in self.steps:
            out.append(format_step(s.level, s.kind, s.payload))
        return "\n".join(out) + "\n"

    def count(self, kind):
        return sum(1 for s in self.steps if s.kind == kind)


def format_step(level, kind, payload):
    if kind == "C":
        return f"{level} C {payload[0]} {payload[1]}"
    if kind == "R":
        return f"{level} R"
    if kind == "H":
        return f"{level} H " + " ".join(f"{x} {y} {v}" for x, y, v in payload)
    return f"{level} S " + " ".join(str(t) for t in payload)


def _reducer(db):
    """The engine's escalation test, remembered per axle: bisection asks
    the same axles again and again."""
    seen = {}

    def run(ax):
        key = (ax.lo, ax.hi)
        if key not in seen:
            try:
                seen[key] = bool(reducible(ax, db, None))
            except ReducibilityFailure:
                seen[key] = False
        return seen[key]
    return run


class Synthesizer:
    """Builds one passing script for degree `d` from the outlet table
    and database; raises Stuck past `max_steps` or MAX_DEPTH."""

    MAX_DEPTH = 40

    def __init__(self, d, table, db, rng, max_steps, use_s=True):
        self.d = d
        self.db = db
        self.rng = rng
        self.max_steps = max_steps
        self.use_s = use_s
        self.reducer = _reducer(db)
        self.limit = 10 * (d - 6) * 2 + 1   # largest sum closing H
        self.pairs = [(x, x % d + 1) for x in range(1, d + 1)]
        self.ctx = {p: build_bound_context(table, p[0], p[1], self.reducer)
                    for p in self.pairs}
        self.positive = [(row.outlet, z) for row in table
                         if row.outlet.value > 0 for z in range(1, d + 1)]

    def run(self):
        self.script = Script(self.d)
        self.conds = [NULL_CONDITION]
        self.pool = []
        self._prove(trivial_axle(self.d), 0)
        return self.script

    # -- dispositions

    def _emit(self, step):
        if len(self.script.steps) >= self.max_steps:
            raise Stuck("script too long")
        self.script.steps.append(step)
        return len(self.script.steps) + 1   # physical line, header is 1

    def _close(self, step):
        self._emit(step)
        keep = len(self.pool)
        while keep > 0 and self.pool[keep - 1].level >= step.level:
            keep -= 1
        del self.pool[keep:]

    def _prove(self, a, level):
        r_failed = False
        if self.db:
            if self.reducer(a):
                self._close(Step(level, "R", ()))
                return
            r_failed = True
        if self.use_s:
            hit = self._symmetry(a)
            if hit is not None:
                self._close(Step(level, "S", hit))
                return
        tight = self._hubcap(a)
        if tight is not None:
            self._close(Step(level, "H", tight, r_failed=r_failed))
            return
        if level >= self.MAX_DEPTH:
            raise Stuck("depth cap")
        c = self._split_condition(a)
        if c is None:
            raise Stuck("no condition splits the branch")
        line = self._emit(Step(level, "C", c))
        del self.conds[level:]
        self.conds += [c, NULL_CONDITION]
        hi_branch = axle_wedge_condition(a, c)
        lo_branch = axle_wedge_condition(a, negate_condition(c))
        entry = None
        if self._poolable(self.conds[:level + 1]):
            entry = PoolEntry(line, level, hi_branch)
            self.pool.append(entry)
        self._prove(hi_branch, level + 1)
        if entry is not None:
            entry.done = True
        self._prove(lo_branch, level)

    def _poolable(self, history):
        b = trivial_axle(self.d)
        for c in history:
            if c == NULL_CONDITION:
                continue
            if not condition_compatible(b, c):
                return False
            b = axle_wedge_condition(b, c)
        return is_fan_free(b)

    def _symmetry(self, a):
        """(k, eps, level, line) of a closed pooled branch whose image
        contains `a` on every position, or None."""
        d = self.d
        for e in self.pool:
            b = e.branch
            if not e.done or not is_fan_free(b):
                continue
            for eps in (0, 1):
                for k in range(d):
                    perm = symmetry_permutation(k, eps, d)
                    if all(b.lo[i] <= a.lo[perm[i]] and
                           a.hi[perm[i]] <= b.hi[i]
                           for i in range(1, 2 * d + 1)):
                        return (k, eps, e.level, e.line)
        return None

    def _range(self, a, pair):
        """Where the bisection starts: the forced value minus one, which
        fails unless the branch is reducible, and the bound that every
        permitted positive outlet firing at once cannot beat."""
        f = 0
        acc = 0
        for out, z in self.ctx[pair].positioned:
            if enforced(a, out, z):
                f += out.value
            elif out.value > 0 and permitted(a, out, z):
                acc += out.value
        return f - 1, f + acc

    def _passes(self, a, pair, v):
        ctx = self.ctx[pair]
        try:
            check_bound(ctx, 0, [0] * len(ctx.positioned), v, a)
        except VerificationFailure:
            return False
        return True

    def _hubcap(self, a):
        """Each pair's tightest passing bound when their sum closes the
        hubcap inequality, else None."""
        ranges = [self._range(a, p) for p in self.pairs]
        floor = sum(lo + 1 for lo, _ in ranges)
        if floor > self.limit:
            return None
        tight = []
        for t, pair in enumerate(self.pairs):
            lo, hi = ranges[t]
            floor -= lo + 1
            while self._passes(a, pair, lo):
                hi = lo
                lo -= 16
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if self._passes(a, pair, mid):
                    hi = mid
                else:
                    lo = mid
            tight.append((pair[0], pair[1], hi))
            floor += hi
            if floor > self.limit:
                return None
        return tuple(tight)

    def _split_condition(self, a):
        """Most shared guard among positive outlets still permitted but
        not enforced, phrased so one half stops permitting them."""
        d = self.d
        votes = {}
        for out, z in self.positive:
            if enforced(a, out, z) or not permitted(a, out, z):
                continue
            for p, lo, hi in out.entries:
                q = pos_add(p, z - 1, d)
                for c in ((q, -hi), (q, lo)):
                    n, m = c
                    if m in (-12, 5) or not condition_compatible(a, c):
                        continue
                    votes[c] = votes.get(c, 0) + 1
        if not votes:
            return self._pin_condition(a)
        best = max(votes.values())
        top = sorted(c for c, n in votes.items() if n == best)
        return top[self.rng.randrange(len(top))]

    def _pin_condition(self, a):
        """Forced charge is left: narrow the first spoke or hat that is
        still open, so the skeleton gains labels a configuration can
        match."""
        for n in range(1, 2 * self.d + 1):
            lo, hi = a.lo[n], a.hi[n]
            if lo < hi and lo <= 8:
                c = (n, -lo)
                if condition_compatible(a, c):
                    return c
        return None


# ----------------------------------------------------------- the verdict

def failing_line(d, rules_text, configs_text, script_text):
    """Run the script through the engine once: the line it fails at, or
    None when it passes."""
    from cartwheel_discharge.presentation import (parse_presentation,
                                                  run_presentation)

    table = derive_outlets(parse_rules(rules_text), d)
    db = load_db(configs_text)
    degree, lines = parse_presentation(script_text)
    try:
        run_presentation(degree, lines, table, db)
    except VerificationFailure as e:
        return e.line
    return None


# ------------------------------------------------------ H-only rule sets

SPOKE_CLASSES = (5, 6, 7, 8, 9)     # 9 stands for 9..12
GUARDS = ((5, 5), (5, 6), (6, 6), (6, 12), (7, 7), (7, 12), (8, 12),
          (5, 7), (6, 8))


def _spoke_rule(rng, d):
    """A rule whose outlets at degree d test spokes only: the spoke it
    sits on and its two neighbours (template slots v2 and v3)."""
    if rng.random() < 0.6:
        v0 = rng.choice(((5, 5), (5, 5), (5, 6), (6, 6), (6, 7)))
        v1 = (d, 12) if rng.random() < 0.5 else (7, 12)
    else:
        v0 = (d, 12)
        v1 = rng.choice(((7, 7), (7, 12), (8, 12), (6, 7)))
    nums = [v0[0], v0[1], v1[0], v1[1]]
    for s in (2, 3):
        if rng.random() < 0.6:
            lo, hi = rng.choice(GUARDS)
            nums += [s, lo, hi]
    return nums


def _inside(c, lo, hi):
    return lo <= c <= hi


def spoke_charge(rules, d):
    """Charge the hub takes from a spoke of class b whose left and right
    neighbours have classes a and c, as a dict (a, b, c) -> charge."""
    f = {}
    for a in SPOKE_CLASSES:
        for b in SPOKE_CLASSES:
            for c in SPOKE_CLASSES:
                total = 0
                for nums in rules:
                    g = {2: (5, 12), 3: (5, 12)}
                    for t in range(4, len(nums), 3):
                        g[nums[t]] = (nums[t + 1], nums[t + 2])
                    v0, v1 = (nums[0], nums[1]), (nums[2], nums[3])
                    # T: hub at v1, v0 on the spoke, v2 right, v3 left
                    if (_inside(d, *v1) and _inside(b, *v0)
                            and _inside(c, *g[2]) and _inside(a, *g[3])):
                        total += 1
                    # T': hub at v0, v1 on the spoke, v2 left, v3 right
                    if (_inside(d, *v0) and _inside(b, *v1)
                            and _inside(a, *g[2]) and _inside(c, *g[3])):
                        total -= 1
                f[(a, b, c)] = total
    return f


def max_wheel_charge(f, d):
    """Largest total charge over every cyclic sequence of d spoke
    classes (max-plus walk over neighbour pairs)."""
    best = None
    for s1 in SPOKE_CLASSES:
        for s2 in SPOKE_CLASSES:
            # state (prev, cur) after placing spokes 1..k
            cur = {(s1, s2): 0}
            for _ in range(d - 2):
                nxt = {}
                for (p, c), v in cur.items():
                    for n in SPOKE_CLASSES:
                        w = v + f[(p, c, n)]
                        if nxt.get((c, n), w - 1) < w:
                            nxt[(c, n)] = w
                cur = nxt
            for (p, c), v in cur.items():
                # close the cycle: spoke d is c, spoke 1 is s1
                w = v + f[(p, c, s1)] + f[(c, s1, s2)]
                if best is None or w > best:
                    best = w
    return best


def hubcap_rules(rng, d, count):
    """Rules over spokes only whose charge can never beat the hubcap
    inequality once every spoke is pinned, so H alone closes every
    branch, yet the root bound does not close."""
    limit = 10 * (d - 6)
    while True:
        rules = [_spoke_rule(rng, d) for _ in range(count)]
        try:
            derive_outlets(parse_rules("\n".join(
                "rule " + " ".join(map(str, r)) for r in rules)), d)
        except InputError:
            continue
        top = max_wheel_charge(spoke_charge(rules, d), d)
        if limit - 4 <= top <= limit:
            return "".join("rule " + " ".join(map(str, r)) + "\n"
                           for r in rules)
