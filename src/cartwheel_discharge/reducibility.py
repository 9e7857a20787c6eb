"""Reducibility disposition: build the skeleton drawing carried by an
axle's upper bounds, search it for a good configuration, and recurse
on tightened axles until every branch carries one.

A skeleton is put together from pieces that a run keeps in one memo
beside its placements.  A spoke piece, keyed (d, i, pin of i or 0 when
open), holds the rotations of spoke i and its fan rows, and the
`third` entries of the triangles around spoke i: the consecutive pairs
of its rotation, wrapping when it is pinned.  Every triangle of a
skeleton has a spoke corner, so these entries make up all of `third`.
A hat piece, keyed (d, i, pin of i, pin of i + 1), holds the rotation
of hat d + i.  Pieces are shared between skeletons and never changed;
they stay lean, since a run keeps every one it builds.

The database scan skips a configuration at once when the skeleton
lacks room for its labels: a placement is injective and label exact,
so every label the question places (`GoodConfiguration.need`) must
occur at least as often among the skeleton's positions (`have`).
"""

from __future__ import annotations

from .axles import Axle, validate_axle
from .configurations import LABEL_GUARD, restrict_drawing
from .errors import InternalInvariantError, ReducibilityFailure
from .rules import cartwheel_rotation


class Skeleton:
    """The drawing of an axle's upper bounds, with the tables the
    probes read.  `have` packs the count of each label like
    `GoodConfiguration.need`."""

    name = "skeleton"

    def __init__(self, gamma, rot, cyclic, adj, third, by_label, have):
        self.gamma = gamma
        self.rot = rot
        self.cyclic = cyclic
        self.adj = adj
        self.third = third
        self.by_label = by_label
        self.have = have


def _spoke_piece(d, i, k):
    """Spoke i of pin k (0 when open) and its fan rows, as their
    rotations and the `third` entries of the triangles around i."""
    pins = {i: k} if k else {}
    rot = {p: cartwheel_rotation(p, pins, d)[0]
           for p in [i] + [j * d + i for j in range(2, k - 3)]}
    third = {}
    lst = rot[i]
    w = lst[-1] if k else None
    for u in lst:
        if w is not None:
            third[(u, i)] = w
            third[(i, w)] = u
            third[(w, u)] = i
        w = u
    return rot, third


def _hat_piece(d, i, k, k2):
    """The rotation of hat d + i between spoke i of pin k and the next
    spoke of pin k2 (0 when open)."""
    pins = {s: pin for s, pin in ((i, k), (i % d + 1, k2)) if pin}
    return cartwheel_rotation(d + i, pins, d)[0]


def skeleton_of(a: Axle, pieces=None) -> Skeleton:
    """Drawing determined by the axle's upper bounds: the hub, the
    spokes, the hats, and fan rows for every spoke pinned to at most
    8.  Each position is labeled with its upper bound: d at the hub,
    12 at an open spoke, and `by_label` lists each label's positions
    in id order.  The drawing is valid by construction, so it is not
    validated: it merges the hub with the d spoke and d hat pieces
    its pins call for, taken from `pieces` or built into it (a fresh
    memo when None).  The hub and the pinned spokes are interior,
    every other position is on the boundary.  The pin-pattern sweep
    in the tests shows that it equals what `Configuration.validate`
    finds."""
    if pieces is None:
        pieces = {}
    d = a.d
    hi = a.hi
    ks = [0] + [k if k <= 8 else 0 for k in hi[1:d + 1]]
    ks.append(ks[1])
    rot = {0: list(range(d, 0, -1))}
    third = {}
    for i in range(1, d + 1):
        k = ks[i]
        key = (d, i, k)
        piece = pieces.get(key)
        if piece is None:
            piece = pieces[key] = _spoke_piece(d, i, k)
        rot.update(piece[0])
        third.update(piece[1])
        key = (d, i, k, ks[i + 1])
        hat = pieces.get(key)
        if hat is None:
            hat = pieces[key] = _hat_piece(d, i, k, ks[i + 1])
        rot[d + i] = hat
    cyc = dict.fromkeys(rot, False)
    cyc[0] = True
    for i in range(1, d + 1):
        if ks[i]:
            cyc[i] = True
    adj = {p: frozenset(ws) for p, ws in rot.items()}
    gamma = {}
    by_label = {}
    have = 0
    for p in sorted(rot):
        gamma[p] = g = hi[p]
        have += 1 << 8 * g
        at = by_label.get(g)
        if at is None:
            by_label[g] = [p]
        else:
            at.append(p)
    return Skeleton(gamma, rot, cyc, adj, third, by_label, have)


def well_positioned(f, cfg, skel: Skeleton) -> bool:
    """A placed configuration may omit a spoke only if it also omits
    one of the two hats beside it."""
    image = {f[v] for v in cfg.ids}
    d = skel.gamma[0]
    for i in range(1, d + 1):
        if i in image:
            continue
        hat_a = d + i
        hat_b = d + (i - 1 if i > 1 else d)
        if hat_a in image and hat_b in image:
            return False
    return True


def check_iso(f, cfg, skel: Skeleton) -> bool:
    """Independent acceptance check on a placement: injective, label
    exact, adjacency preserved both ways, and the triangles of the
    configuration map onto triangular faces of the induced subdrawing
    of the skeleton, all with the same handedness (the mirror image
    counts as appearing)."""
    ids = cfg.ids
    image = [f[v] for v in ids]
    if len(set(image)) != len(image):
        return False
    kadj = skel.adj
    kgam = skel.gamma
    for v in ids:
        fv = f[v]
        if fv not in kadj or cfg.gamma[v] != kgam[fv]:
            return False
    for v in ids:
        for u in ids:
            if u >= v:
                continue
            if (u in cfg.adj[v]) != (f[u] in kadj[f[v]]):
                return False
    rot, _ = restrict_drawing(skel.rot, skel.cyclic, set(image))
    pred = {}
    for x, lst in rot.items():
        for t, y in enumerate(lst):
            pred[(x, y)] = lst[t - 1]

    # a plane isomorphism keeps one handedness throughout; the mirror
    # image of a configuration appears with every triangle reversed
    def handed(reverse):
        for (p, q, r) in cfg.triangles:
            fp, fq, fr = f[p], f[q], f[r]
            if reverse:
                fq, fr = fr, fq
            if pred.get((fq, fp)) != fr:
                return False
            if pred.get((fr, fq)) != fp:
                return False
            if pred.get((fp, fr)) != fq:
                return False
        return True

    return handed(False) or handed(True)


def _positive_answers(question, skel: Skeleton):
    """All embeddings the probe sequence finds, in canonical order."""
    gam = skel.gamma
    x0 = question[0][3]
    x1 = question[1][3]
    z0 = question[0][2]
    z1 = question[1][2]
    for p in skel.by_label.get(x0, ()):
        for r in sorted(skel.adj[p]):
            if x1 > 0 and gam[r] != x1:
                continue
            f = {z0: p, z1: r}
            used = {p, r}
            ok = True
            for (u, v, z, xi) in question[2:]:
                w = skel.third.get((f[u], f[v]))
                if w is None or w in used or (xi > 0 and gam[w] != xi):
                    ok = False
                    break
                f[z] = w
                used.add(w)
            if ok:
                yield f


def semi_reducible(a: Axle, db, pieces=None):
    """First good configuration appearing well-positioned in the
    skeleton of `a`, with its placement, or None.  `pieces` is the
    skeleton piece memo (see skeleton_of).  For hub degree at least 6
    an appearance must survive the independent isomorphism check; a
    miss there means the machinery itself is broken."""
    skel = skeleton_of(a, pieces)
    room = skel.have + LABEL_GUARD
    for gc in db:
        # a guard bit borrowed away marks a label the skeleton has too
        # few positions for, so the configuration cannot appear
        if (room - gc.need) & LABEL_GUARD != LABEL_GUARD:
            continue
        for question in (gc.question, gc.reflection):
            for f in _positive_answers(question, skel):
                img = {v: f[v] for v in gc.config.ids}
                if not well_positioned(img, gc.config, skel):
                    continue
                if check_iso(img, gc.config, skel):
                    return gc, img
                if a.d >= 6:
                    raise InternalInvariantError(
                        f"well-positioned answer for {gc.name} fails the "
                        f"isomorphism check on axle {a.digest()}")
    return None


def reducible(a: Axle, db, trace=None, *, placements=None,
              pieces=None) -> bool:
    """Every axle compatible with `a` must carry a good configuration.
    Work a stack of (axle, trail): a found placement at positions P
    spawns one child per p in P where the bounds still have slack,
    with the upper bound at p lowered by one.  An exhausted search
    raises ReducibilityFailure naming the stuck axle and its trail.

    `placements` maps (d, hi) to the semi_reducible answer on db: the
    skeleton reads only d and hi, so axles that differ in lo alone
    share it.  A caller that passes one dict to many calls on the same
    db builds each skeleton once; by default it lives for this call.
    `pieces` is the skeleton piece memo, which depends on nothing but
    the degree and pins; it too lives for this call by default."""
    if placements is None:
        placements = {}
    if pieces is None:
        pieces = {}
    stack = [(a, ())]
    while stack:
        b, trail = stack.pop()
        key = (b.d, b.hi)
        if key in placements:
            found = placements[key]
        else:
            found = placements[key] = semi_reducible(b, db, pieces)
        if found is None:
            if trace is not None:
                trace.append(
                    f"reduce fail axle={b.digest()} trail={_fmt_trail(trail)}")
            raise ReducibilityFailure(
                f"no good configuration appears in axle {b.digest()} "
                f"(trail {_fmt_trail(trail)})", b, trail)
        gc, img = found
        if trace is not None:
            trace.append(
                f"reduce axle={b.digest()} trail={_fmt_trail(trail)} "
                f"config={gc.name} image={sorted(set(img.values()))}")
        children = []
        for pos in sorted(set(img.values())):
            if b.lo[pos] < b.hi[pos]:
                hi = bytearray(b.hi)
                hi[pos] -= 1
                child = Axle(b.d, b.lo, bytes(hi))
                bad = validate_axle(child)
                if bad:
                    raise InternalInvariantError(
                        f"tightened axle breaks its invariants: {bad}")
                children.append((child, trail + ((pos, hi[pos]),)))
        stack.extend(reversed(children))
    return True


def _fmt_trail(trail):
    if not trail:
        return "-"
    return ",".join(f"{p}:{u}" for p, u in trail)
