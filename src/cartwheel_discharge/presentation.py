"""Proof scripts: a degree header followed by one line per step.  A
condition line splits the current branch in two; a disposition line
closes the current branch by a bound check (H), a reducibility run
(R), or an appeal to an already disposed branch (S).

Levels track the branching depth.  A condition at level l moves to
l+1; a disposition at level l returns to l-1, and at level 0 it
closes the whole proof.  Every branch the script walks away from has
been replaced by its negation, so a closed proof covers every axle of
the degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axles import (CONDITION_VALUES, NULL_CONDITION, axle_wedge_condition,
                    condition_compatible, is_fan_free, negate_condition,
                    symmetry_permutation, trivial_axle)
from .errors import (InputError, InternalInvariantError, ReducibilityFailure,
                     VerificationFailure)
from .hubcaps import check_hubcap
from .reducibility import reducible
from .rules import axle_from_outlet, enforced, outlet_from_axle


@dataclass(frozen=True)
class PresentationLine:
    no: int          # physical line number in the file
    level: int
    kind: str        # "C", "R", "H", "S"
    payload: tuple


@dataclass
class PoolEntry:
    line: int
    level: int
    outlet: object


@dataclass
class RunReport:
    degree: int
    steps: int = 0
    branches: int = 0
    dispositions: dict = field(default_factory=dict)
    pool_peak: int = 0


def parse_presentation(text, path=None):
    """Returns (degree, lines).  Syntax only; walk_levels holds the
    steps to the level discipline."""
    degree = None
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if degree is None:
            if parts[0] != "degree" or len(parts) != 2:
                raise InputError("expected 'degree <d>' first", no, path)
            try:
                degree = int(parts[1])
            except ValueError:
                raise InputError("degree must be an integer", no, path)
            if not 5 <= degree <= 11:
                raise InputError(f"degree {degree} out of range 5..11", no, path)
            continue
        try:
            level = int(parts[0])
        except ValueError:
            raise InputError("line must start with its level", no, path)
        if level < 0:
            raise InputError("negative level", no, path)
        if len(parts) < 2:
            raise InputError("missing step tag", no, path)
        kind = parts[1]
        args = parts[2:]
        if kind == "C":
            if len(args) != 2:
                raise InputError("condition takes exactly 'n m'", no, path)
            n, m = _ints(args, no, path)
            if not 1 <= n <= 5 * degree:
                raise InputError(f"position {n} out of range 1..{5 * degree}",
                                 no, path)
            if m not in CONDITION_VALUES:
                raise InputError(f"condition value {m} not allowed", no, path)
            payload = (n, m)
        elif kind == "R":
            if args:
                raise InputError("reducibility step takes no arguments", no, path)
            payload = ()
        elif kind == "H":
            vals = _ints(args, no, path)
            if not vals or len(vals) % 3:
                raise InputError("bound step takes (x y v) triples", no, path)
            payload = tuple(tuple(vals[t:t + 3]) for t in range(0, len(vals), 3))
        elif kind == "S":
            if len(args) != 4:
                raise InputError("symmetry step takes 'k eps l m'", no, path)
            k, eps, l, m = _ints(args, no, path)
            if not 0 <= k < degree:
                raise InputError(f"rotation {k} out of range 0..{degree - 1}",
                                 no, path)
            if eps not in (0, 1):
                raise InputError("reflection flag must be 0 or 1", no, path)
            if l < 0:
                raise InputError("negative referenced level", no, path)
            if m < 2:
                raise InputError("referenced line must follow the header",
                                 no, path)
            payload = (k, eps, l, m)
        else:
            raise InputError(f"unknown step tag {kind!r}", no, path)
        lines.append(PresentationLine(no, level, kind, payload))
    if degree is None:
        raise InputError("empty proof script", 1, path)
    if not lines:
        raise InputError("no steps after the degree header", 1, path)
    return degree, lines


def _ints(parts, no, path):
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise InputError("non-integer field", no, path)


def walk_levels(lines):
    """Yield the steps of a parsed script in order while holding them
    to the level discipline; raises InputError at the first break.
    Levels past a break mean nothing, so the walk stops there."""
    level = 0
    closed = False
    for ln in lines:
        if closed:
            raise InputError("step after the proof already closed", ln.no)
        if ln.level != level:
            raise InputError(
                f"level {ln.level} where {level} is expected", ln.no)
        yield ln
        if ln.kind == "C":
            level += 1
        elif level == 0:
            closed = True
        else:
            level -= 1
    if not closed:
        raise InputError("proof ends with branches still open",
                         lines[-1].no if lines else 1)


def check_symmetry_disposition(pool, k, eps, l, m, a):
    """The branch is covered by an image of an earlier pooled branch
    under rotation by k, reflected when eps is 1.  For pure rotations
    the containment must coincide with the interval kernel's verdict."""
    entry = None
    for e in pool:
        if e.line == m and e.level == l:
            entry = e
            break
    if entry is None:
        return False
    base = axle_from_outlet(entry.outlet, a.d)
    perm = symmetry_permutation(k, eps, a.d)
    contained = True
    for i in range(2 * a.d + 1):
        p = perm[i]
        if base.lo[i] > a.lo[p] or a.hi[p] > base.hi[i]:
            contained = False
            break
    if eps == 0:
        fast = enforced(a, entry.outlet, k + 1)
        if fast != contained:
            raise InternalInvariantError(
                "rotation containment disagrees with the interval kernel")
    return contained


def _make_reducer(db):
    def run(ax):
        try:
            return bool(reducible(ax, db, None))
        except ReducibilityFailure:
            return False
    return run


def run_presentation(degree, lines, table, db, trace=None):
    """Execute a parsed proof script against the derived outlet table
    and the good-configuration database.  Returns a RunReport; raises
    VerificationFailure (with the offending line) when a branch cannot
    be disposed, InputError when the script is malformed."""
    start = trivial_axle(degree)
    axles = [start]
    conds = [NULL_CONDITION]
    pool = []
    report = RunReport(degree)
    reducer = _make_reducer(db)

    for ln in walk_levels(lines):
        level = ln.level
        a = axles[level]
        report.steps += 1
        if ln.kind == "C":
            c = ln.payload
            if not condition_compatible(a, c):
                raise VerificationFailure(
                    f"condition {c} is not compatible with its branch",
                    line=ln.no)
            neg = negate_condition(c)
            if not condition_compatible(a, neg):
                raise InternalInvariantError(
                    f"negated condition {neg} incompatible alongside {c}")
            hi_branch = axle_wedge_condition(a, c)
            lo_branch = axle_wedge_condition(a, neg)
            del axles[level:]
            axles.append(lo_branch)
            axles.append(hi_branch)
            del conds[level:]
            conds.append(c)
            conds.append(NULL_CONDITION)
            _pool_branch(pool, conds[:level + 1], ln, degree)
            report.pool_peak = max(report.pool_peak, len(pool))
            report.branches += 1
            if trace is not None:
                trace.append(f"line {ln.no} level {level} C {c[0]} {c[1]} "
                             f"axle={a.digest()} verdict=split")
            continue

        # disposition of the current branch
        try:
            if ln.kind == "R":
                reducible(a, db, trace)
            elif ln.kind == "H":
                check_hubcap(a, ln.payload, table, reducer, trace)
            else:
                ok = check_symmetry_disposition(pool, *ln.payload, a)
                if not ok:
                    raise VerificationFailure(
                        "symmetry appeal does not cover the branch",
                        line=ln.no)
        except VerificationFailure as e:
            if e.line is None:
                e.line = ln.no
            raise
        except InputError as e:
            if e.line is None:
                e.line = ln.no
            raise
        report.dispositions[ln.kind] = report.dispositions.get(ln.kind, 0) + 1
        if trace is not None:
            trace.append(f"line {ln.no} level {level} {ln.kind} "
                         f"axle={a.digest()} verdict=ok")
        keep = len(pool)
        while keep > 0 and pool[keep - 1].level >= level:
            keep -= 1
        del pool[keep:]
    return report


def _pool_branch(pool, history, ln, degree):
    """Record the just-split branch for later symmetry appeals: the
    branch rebuilt from the header axle and the path conditions alone,
    kept only when that chain holds and stays fan-free."""
    b = trivial_axle(degree)
    for c in history:
        if c == NULL_CONDITION:
            continue
        if not condition_compatible(b, c):
            return
        b = axle_wedge_condition(b, c)
    if not is_fan_free(b):
        return
    pool.append(PoolEntry(ln.no, ln.level, outlet_from_axle(b)))
