"""Hubcap dispositions: coverage checking, the degree arithmetic, and
the recursive bound certifier.

A hubcap is a list of triples (x, y, v): spoke pair plus a claimed
upper bound v on the total charge the rules can move between the hub
and that pair.  Certifying each bound is the job of check_bound; the
final inequality 10(6-d) + floor(sum(v)/2) <= 0 closes the case.
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
        self._masks = (None, ())       # (degree, masks), compiled on use

    def masks(self, d):
        """The positioned outlets' kernel masks at degree d."""
        if self._masks[0] != d:
            self._masks = (d, tuple(out.masks(x, d)
                                    for out, x in self.positioned))
        return self._masks[1]


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
    0 undecided; entries before p are settled.
    """
    d = a.d
    masks = ctx.masks(d)
    values = ctx.values
    n = len(masks)
    packed = a.packed
    enforced = _kernels.outlet_enforced
    # settle every undecided outlet, not just those from p on: a wedge
    # for a later outlet can force an earlier negative one
    f = 0
    acc = 0
    for i in range(n):
        t = s[i]
        if t == 0:
            if enforced(packed, masks[i]):
                s[i] = t = 1
            elif not _kernels.outlet_permitted(packed, masks[i]):
                s[i] = t = -1
        if t == 1:
            f += values[i]
        elif t == 0 and values[i] > 0:
            acc += values[i]
    if ctx.trace is not None:
        ctx.trace.append(
            f"bound p={p} s={''.join(str(t + 1) for t in s)} f={f} a={acc} "
            f"v={v} axle={a.digest()}")
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
    for q in range(p, n):
        if s[q] != 0 or values[q] <= 0:
            continue
        wedged = _kernels.outlet_wedge(packed, masks[q])
        if wedged is None:
            raise InternalInvariantError(
                "undecided outlet failed to wedge despite being permitted")
        pruned = False
        for i in range(p):
            if s[i] == -1 and enforced(wedged, masks[i]):
                pruned = True
                break
        if not pruned:
            s_child = list(s)
            s_child[q] = 1
            check_bound(ctx, q, s_child, v, Axle.from_packed(d, wedged),
                        trail + (q,))
        elif ctx.trace is not None:
            ctx.trace.append(f"bound prune q={q}")
        s[q] = -1
        acc -= values[q]
        if acc + f <= v:
            return
    raise InternalInvariantError("check_bound exhausted its branches "
                                 "without settling the bound")


def check_hubcap(a: Axle, triples, table, reducer, trace=None):
    """Verify every triple's bound, in order, and the closing
    inequality.  A triple's trace lines are kept only once every
    triple has passed."""
    check_hubcap_sum(triples, a.d)
    lines = [] if trace is not None else None
    for x, y, v in triples:
        if lines is not None:
            lines.append(f"hubcap triple {x} {y} {v}")
        ctx = build_bound_context(table, x, y, reducer, lines)
        check_bound(ctx, 0, [0] * len(ctx.positioned), v, a)
    if trace is not None:
        trace += lines
