"""Hubcap dispositions: coverage checking, the degree arithmetic, and
the recursive bound certifier.

A hubcap is a list of triples (x, y, v): spoke pair plus a claimed
upper bound v on the total charge the rules can move between the hub
and that pair.  Certifying each bound is the job of check_bound; the
final inequality 10(6-d) + floor(sum(v)/2) <= 0 closes the case.

The search keeps its sign vector as two int bitsets over the context's
positioned outlets, the enforced and the not permitted ones (outlet i
at bit i), and settles a node's undecided outlets in one pass over the
context's lane tables (see _kernels).  A run builds each spoke pair's
context once and shares it between its H steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernels
from .axles import Axle
from .errors import InputError, InternalInvariantError, VerificationFailure


def validate_hubcap(triples, d):
    """Infer per-triple multiplicities and check the coverage rule.

    Each spoke index 1..d must be covered exactly twice by the x,y
    multiset.  A triple listed once may stand for two copies; it is
    promoted when one of its indices is otherwise covered only once.
    Returns the multiplicity list.
    """
    if not triples:
        raise InputError("empty hubcap")
    for x, y, v in triples:
        if not (1 <= x <= d and 1 <= y <= d):
            raise InputError(f"hubcap spoke ({x},{y}) out of 1..{d}")
    mult = [1] * len(triples)
    count = [0] * (d + 1)
    for x, y, _ in triples:
        count[x] += 1
        count[y] += 1
    for t, (x, y, _) in enumerate(triples):
        if count[x] == 1 or count[y] == 1:
            mult[t] = 2
    count = [0] * (d + 1)
    for t, (x, y, _) in enumerate(triples):
        count[x] += mult[t]
        count[y] += mult[t]
    bad = [i for i in range(1, d + 1) if count[i] != 2]
    if bad:
        raise InputError(
            f"hubcap does not cover spokes {bad} exactly twice "
            f"(multiplicities {mult})")
    return mult


def check_h2(triples, mult, d) -> bool:
    total = sum(v * m for (_, _, v), m in zip(triples, mult))
    return 10 * (6 - d) + total // 2 <= 0


def check_hubcap_sum(triples, d):
    """The checks a hubcap passes before any bound search: coverage
    (InputError), then the closing inequality (VerificationFailure).
    `verify` and `lint` both run these, so a defect reads alike."""
    mult = validate_hubcap(triples, d)
    if not check_h2(triples, mult, d):
        total = sum(v * m for (_, _, v), m in zip(triples, mult))
        raise VerificationFailure(
            f"hubcap sum {total} fails 10(6-{d}) + floor(sum/2) <= 0")


@dataclass
class BoundContext:
    """One bound certification task: the fixed positioned-outlet list
    for a spoke pair, plus the reducibility escalation hook."""

    positioned: tuple          # ((Outlet, spoke), ...) canonical order
    reducer: object            # callable Axle -> bool
    trace: list = None
    values: tuple = field(init=False)

    def __post_init__(self):
        self.values = tuple(o.value for o, _ in self.positioned)
        groups = {}
        for i, value in enumerate(self.values):
            groups[value] = groups.get(value, 0) | 1 << i
        # (value, bitset of the outlets with it), and the positive ones
        self.groups = tuple(sorted(groups.items()))
        self.positive = sum(bits for value, bits in self.groups if value > 0)
        self._compiled = (None, (), None)   # (degree, masks, lane tables)

    def compiled(self, d):
        """The positioned outlets' kernel masks at degree d, and their
        lane tables; compiled on first use."""
        if self._compiled[0] != d:
            masks = tuple(out.masks(x, d) for out, x in self.positioned)
            self._compiled = (d, masks, _kernels.LaneTables(masks, d))
        return self._compiled[1:]


def build_bound_context(table, x, y, reducer, trace=None):
    # outlet-table order major; x before y; one copy when x == y
    spots = (x,) if x == y else (x, y)
    positioned = tuple((row.outlet, z) for row in table for z in spots)
    return BoundContext(positioned, reducer, trace)


def check_bound(ctx: BoundContext, p: int, s: list, v: int, a: Axle,
                trail=()):
    """Certify that no admissible outlet set beats v, or escalate to
    reducibility.  Raises VerificationFailure when neither works.

    s is the caller's sign vector: +1 enforced, -1 not permitted,
    0 undecided; entries before p are settled.  It is read, not
    written.
    """
    pos = sum(1 << i for i, t in enumerate(s) if t == 1)
    neg = sum(1 << i for i, t in enumerate(s) if t == -1)
    _search(ctx, *ctx.compiled(a.d), p, pos, neg, v, a, trail)


def _bits(x):
    """The set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _search(ctx, masks, lanes, p, pos, neg, v, a, trail):
    # pos / neg: bitsets of the enforced / not permitted outlets
    n = len(masks)
    packed = a.packed
    # settle every undecided outlet, not just those from p on: a wedge
    # for a later outlet can force an earlier negative one
    undecided = ((1 << n) - 1) & ~(pos | neg)
    if undecided:
        out, miss = lanes.settle(packed)
        pos |= undecided & ~out
        neg |= undecided & out & miss
        undecided &= out & ~miss
    f = acc = 0
    for value, bits in ctx.groups:
        f += value * (pos & bits).bit_count()
        if value > 0:
            acc += value * (undecided & bits).bit_count()
    if ctx.trace is not None:
        signs = "".join("2" if pos >> i & 1 else "0" if neg >> i & 1
                        else "1" for i in range(n))
        ctx.trace.append(f"bound p={p} s={signs} f={f} a={acc} v={v} "
                         f"axle={a.digest()}")
    if acc + f <= v:
        return
    if f > v:
        if ctx.reducer(a):
            if ctx.trace is not None:
                ctx.trace.append(f"bound overflow f={f}>{v}: reducible "
                                 f"axle={a.digest()}")
            return
        raise VerificationFailure(
            f"forced value {f} exceeds bound {v} and the axle is not "
            f"reducible (branch {list(trail)}, axle {a!r})")
    enforced = _kernels.outlet_enforced
    excluded = neg & ((1 << p) - 1)
    for q in _bits(undecided & ctx.positive & ~((1 << p) - 1)):
        wedged = _kernels.outlet_wedge(packed, masks[q])
        if wedged is None:
            raise InternalInvariantError(
                "undecided outlet failed to wedge despite being permitted")
        # prune when the wedge enforces an outlet excluded before p
        for i in _bits(excluded):
            if enforced(wedged, masks[i]):
                if ctx.trace is not None:
                    ctx.trace.append(f"bound prune q={q}")
                break
        else:
            _search(ctx, masks, lanes, q, pos | 1 << q, neg, v,
                    Axle.from_packed(a.d, wedged), trail + (q,))
        neg |= 1 << q
        acc -= ctx.values[q]
        if acc + f <= v:
            return
    raise InternalInvariantError("check_bound exhausted its branches "
                                 "without settling the bound")


def check_hubcap(a: Axle, triples, table, reducer, trace=None,
                 contexts=None):
    """Verify every triple's bound, in order, and the closing
    inequality.  A triple's trace lines are kept only once every
    triple has passed.  `contexts` is the run's memo of bound contexts
    by spoke pair, for one table and reducer; a call without one builds
    its own."""
    check_hubcap_sum(triples, a.d)
    if contexts is None:
        contexts = {}
    lines = [] if trace is not None else None
    for x, y, v in triples:
        if lines is not None:
            lines.append(f"hubcap triple {x} {y} {v}")
        ctx = contexts.get((x, y))
        if ctx is None:
            ctx = contexts[x, y] = build_bound_context(table, x, y, reducer)
        ctx.trace = lines
        check_bound(ctx, 0, [0] * len(ctx.positioned), v, a)
    if trace is not None:
        trace += lines
