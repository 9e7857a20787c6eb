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

from .axles import (CONDITION_VALUES, axle_wedge_condition,
                    condition_compatible, is_fan_free, negate_condition,
                    symmetry_permutation, trivial_axle)
from .errors import (InputError, InternalInvariantError, ReducibilityFailure,
                     VerificationFailure, integers, records)
from .hubcaps import check_hubcap
from .reducibility import reducible
from .rules import enforced, outlet_from_axle


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
    axle: object


@dataclass
class RunReport:
    degree: int
    steps: int = 0
    branches: int = 0
    dispositions: dict = field(default_factory=dict)
    pool_peak: int = 0


def parse_presentation(text):
    """Returns (degree, lines).  Syntax only; walk_levels holds the
    steps to the level discipline."""
    degree = None
    lines = []
    for no, parts in records(text):
        if degree is None:
            if parts[0] != "degree" or len(parts) != 2:
                raise InputError("expected 'degree <d>' first", no)
            degree, = integers(parts[1:], "degree must be an integer", no)
            if not 5 <= degree <= 11:
                raise InputError(f"degree {degree} out of range 5..11", no)
            head = no
            continue
        level, = integers(parts[:1], "line must start with its level", no)
        if level < 0:
            raise InputError("negative level", no)
        if len(parts) < 2:
            raise InputError("missing step tag", no)
        kind = parts[1]
        args = parts[2:]
        if kind == "C":
            if len(args) != 2:
                raise InputError("condition takes exactly 'n m'", no)
            n, m = integers(args, "non-integer field", no)
            if not 1 <= n <= 5 * degree:
                raise InputError(f"position {n} out of range 1..{5 * degree}",
                                 no)
            if m not in CONDITION_VALUES:
                raise InputError(f"condition value {m} not allowed", no)
            payload = (n, m)
        elif kind == "R":
            if args:
                raise InputError("reducibility step takes no arguments", no)
            payload = ()
        elif kind == "H":
            vals = integers(args, "non-integer field", no)
            if not vals or len(vals) % 3:
                raise InputError("bound step takes (x y v) triples", no)
            payload = tuple(tuple(vals[t:t + 3]) for t in range(0, len(vals), 3))
        elif kind == "S":
            if len(args) != 4:
                raise InputError("symmetry step takes 'k eps l m'", no)
            k, eps, l, m = integers(args, "non-integer field", no)
            if not 0 <= k < degree:
                raise InputError(f"rotation {k} out of range 0..{degree - 1}",
                                 no)
            if eps not in (0, 1):
                raise InputError("reflection flag must be 0 or 1", no)
            if l < 0:
                raise InputError("negative referenced level", no)
            if m < 2:
                raise InputError("referenced line must follow the header", no)
            payload = (k, eps, l, m)
        else:
            raise InputError(f"unknown step tag {kind!r}", no)
        lines.append(PresentationLine(no, level, kind, payload))
    if degree is None:
        raise InputError("empty proof script", 1)
    if not lines:
        raise InputError("no steps after the degree header", head)
    return degree, lines


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
    base = entry.axle
    perm = symmetry_permutation(k, eps, a.d)
    contained = True
    for i in range(2 * a.d + 1):
        p = perm[i]
        if base.lo[i] > a.lo[p] or a.hi[p] > base.hi[i]:
            contained = False
            break
    if eps == 0:
        fast = enforced(a, outlet_from_axle(base), k + 1)
        if fast != contained:
            raise InternalInvariantError(
                "rotation containment disagrees with the interval kernel")
    return contained


def _make_reducer(db, placements, pieces):
    """The reducer H steps escalate a forced overflow to.  It decides
    each axle once; `placements` and `pieces` are the run's memos for
    reducible, shared with its R steps."""
    verdicts = {}

    def run(ax):
        if ax not in verdicts:
            try:
                verdicts[ax] = bool(
                    reducible(ax, db, None, placements=placements,
                              pieces=pieces))
            except ReducibilityFailure:
                verdicts[ax] = False
        return verdicts[ax]
    return run


def run_presentation(degree, lines, table, db, trace=None):
    """Execute a parsed proof script against the derived outlet table
    and the good-configuration database.  Returns a RunReport; raises
    VerificationFailure (with the offending line) when a branch cannot
    be disposed, InputError when the script is malformed."""
    # one frame per open level: the branch, and the branch built from
    # the conditions of its path alone (None once they clash)
    start = trivial_axle(degree)
    frames = [(start, start)]
    # a split at level l holds the pool entry of the side that takes its
    # condition until a disposition at level l + 1 closes that side
    held = []
    pool = []
    report = RunReport(degree)
    # the memos die with this run, so no verdict outlives its database
    # and no bound context its table
    placements = {}
    pieces = {}
    contexts = {}
    reducer = _make_reducer(db, placements, pieces)

    for ln in walk_levels(lines):
        level = ln.level
        a, path = frames[level]
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
            taken = _path_branch(path, c)
            frames[level:] = [(lo_branch, path), (hi_branch, taken)]
            held[level:] = [PoolEntry(ln.no, level, taken)
                            if taken is not None and is_fan_free(taken)
                            else None]
            report.pool_peak = max(report.pool_peak,
                                   len(pool) + len(held) - held.count(None))
            report.branches += 1
            if trace is not None:
                trace.append(f"line {ln.no} level {level} C {c[0]} {c[1]} "
                             f"axle={a.digest()} verdict=split")
            continue

        # disposition of the current branch
        try:
            if ln.kind == "R":
                reducible(a, db, trace, placements=placements,
                          pieces=pieces)
            elif ln.kind == "H":
                check_hubcap(a, ln.payload, table, reducer, trace, contexts)
            else:
                ok = check_symmetry_disposition(pool, *ln.payload, a)
                if not ok:
                    raise VerificationFailure(
                        "symmetry appeal does not cover the branch",
                        line=ln.no)
        except (VerificationFailure, InputError) as e:
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
        if level:
            _pool_branch(pool, held.pop())
    return report


def _path_branch(path, c):
    """Path branch of the side of a split that takes condition c: the
    parent's path wedged with c, or None once the chain breaks."""
    if path is None or not condition_compatible(path, c):
        return None
    return axle_wedge_condition(path, c)


def _pool_branch(pool, entry):
    """Pool a held entry for later symmetry appeals, now that the side
    of the split it stands for is disposed of; a side whose path broke
    or carries fan bounds has none."""
    if entry is not None:
        pool.append(entry)
