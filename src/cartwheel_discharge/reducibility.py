"""Reducibility disposition: build the skeleton drawing carried by an
axle's upper bounds, search it for a good configuration, and recurse
on tightened axles until every branch carries one.
"""

from __future__ import annotations

from .axles import Axle, validate_axle
from .configurations import Configuration, restrict_drawing
from .errors import InternalInvariantError, ReducibilityFailure
from .rules import cartwheel_rotation


def skeleton_of(a: Axle) -> Configuration:
    """Drawing determined by the axle's upper bounds: the hub, the
    spokes, the hats, and fan rows for every spoke pinned to at most
    8.  Each position is labeled with its upper bound: d at the hub,
    12 at an open spoke, and `by_label` lists each label's positions
    in id order.  The drawing is valid by construction, so it
    is not validated: adjacency comes from the rotations and the
    corners from the one corner pass.  The pin-pattern sweep in the
    tests shows that it equals what `Configuration.validate` finds."""
    d = a.d
    pins = {i: a.hi[i] for i in range(1, d + 1) if a.hi[i] <= 8}
    positions = list(range(2 * d + 1))
    for i, k in pins.items():
        positions.extend(j * d + i for j in range(2, k - 3))
    gamma = {}
    rot = {}
    cyc = {}
    by_label = {}
    for p in sorted(positions):
        gamma[p] = g = a.hi[p]
        by_label.setdefault(g, []).append(p)
        rot[p], cyc[p] = cartwheel_rotation(p, pins, d)
    skel = Configuration("skeleton", gamma, rot, cyc)
    skel.by_label = by_label
    skel.adj = {p: frozenset(ws) for p, ws in rot.items()}
    skel.read_corners()
    return skel


def well_positioned(f, cfg, skel: Configuration) -> bool:
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


def check_iso(f, cfg, skel: Configuration) -> bool:
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


def _positive_answers(question, skel: Configuration):
    """All embeddings the probe sequence finds, in canonical order."""
    gam = skel.gamma
    x0 = question[0][3]
    x1 = question[1][3]
    z0 = question[0][2]
    z1 = question[1][2]
    for p in skel.by_label.get(x0, ()) if x0 > 0 else skel.ids:
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


def semi_reducible(a: Axle, db):
    """First good configuration appearing well-positioned in the
    skeleton of `a`, with its placement, or None.  For hub degree at
    least 6 an appearance must survive the independent isomorphism
    check; a miss there means the machinery itself is broken."""
    skel = skeleton_of(a)
    for gc in db:
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


def reducible(a: Axle, db, trace=None, *, placements=None) -> bool:
    """Every axle compatible with `a` must carry a good configuration.
    Work a stack of (axle, trail): a found placement at positions P
    spawns one child per p in P where the bounds still have slack,
    with the upper bound at p lowered by one.  An exhausted search
    raises ReducibilityFailure naming the stuck axle and its trail.

    `placements` maps (d, hi) to the semi_reducible answer on db: the
    skeleton reads only d and hi, so axles that differ in lo alone
    share it.  A caller that passes one dict to many calls on the same
    db builds each skeleton once; by default it lives for this call."""
    if placements is None:
        placements = {}
    stack = [(a, ())]
    while stack:
        b, trail = stack.pop()
        key = (b.d, b.hi)
        if key in placements:
            found = placements[key]
        else:
            found = placements[key] = semi_reducible(b, db)
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
