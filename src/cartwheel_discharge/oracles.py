"""Brute-force oracles and seeded instance generators for the test
suite.  Everything here favors obviousness over speed and reimplements
the arithmetic it checks rather than calling the engine's versions.
"""

from __future__ import annotations

import random

from .axles import Axle, trivial_axle
from .configurations import Configuration, ring_plan
from .errors import InputError, InternalInvariantError
from .rules import Outlet


def _rng(seed):
    if not isinstance(seed, (int, float, str, bytes, bytearray, type(None))):
        seed = repr(seed)
    return random.Random(seed)


# ---------------------------------------------------------------- bounds

def _place(p, x, d):
    s = x - 1
    return p + s if s + (p - 1) % d < d else p + s - d


def _enf(lo, hi, outlet, x, d):
    for (p, l, u) in outlet.entries:
        q = _place(p, x, d)
        if l > lo[q] or hi[q] > u:
            return False
    return True


def _perm(lo, hi, outlet, x, d):
    for (p, l, u) in outlet.entries:
        q = _place(p, x, d)
        if max(l, lo[q]) > min(u, hi[q]):
            return False
    return True


def _wedge(lo, hi, outlet, x, d):
    lo = bytearray(lo)
    hi = bytearray(hi)
    for (p, l, u) in outlet.entries:
        q = _place(p, x, d)
        if l > lo[q]:
            lo[q] = l
        if u < hi[q]:
            hi[q] = u
        if lo[q] > hi[q]:
            return None
    return bytes(lo), bytes(hi)


def brute_force_bound(a: Axle, positioned, reducer):
    """Largest total over admissible positioned-outlet sets: include
    every outlet the axle enforces, any subset of the permitted
    positive ones whose joint wedge is still an axle the reducer
    rejects, and sum the values then enforced.  None when no set at
    all is admissible."""
    d = a.d
    n = len(positioned)
    if n > 16:
        raise InputError("oracle cap: at most 16 positioned outlets")
    free = [t for t in range(n)
            if positioned[t][0].value > 0
            and not _enf(a.lo, a.hi, *positioned[t], d)
            and _perm(a.lo, a.hi, *positioned[t], d)]
    if len(free) > 14:
        raise InputError("oracle cap: too many undecided positive outlets")
    best = None
    for mask in range(1 << len(free)):
        lo, hi = a.lo, a.hi
        ok = True
        for j, t in enumerate(free):
            if mask >> j & 1:
                w = _wedge(lo, hi, *positioned[t], d)
                if w is None:
                    ok = False
                    break
                lo, hi = w
        if not ok:
            continue
        if reducer(Axle(d, lo, hi)):
            continue
        total = 0
        for t in range(n):
            if _enf(lo, hi, *positioned[t], d):
                total += positioned[t][0].value
        if best is None or total > best:
            best = total
    return best


# ------------------------------------------------------- configurations

def free_completion(cfg: Configuration):
    """The drawn ring: extend the drawing by a surrounding ring so every
    labeled vertex reaches its labeled degree, and validate the result.
    Returns (completion, ring).  The reference for `enhance`, which
    reads its corner map from the same `ring_plan` without drawing the
    ring: the map is this drawing's triangles among cfg and `extra`,
    and wherever this raises, `enhance` raises the same message."""
    ids = cfg.ids
    base = max(ids)
    if len(ids) == 1:
        v = ids[0]
        g = cfg.gamma[v]
        if g is None or g < 3:
            raise InputError(f"{cfg.name}: cannot ring a vertex labeled {g}")
        ring = [base + 1 + t for t in range(g)]
        rot = {v: list(ring)}
        gam = {v: g}
        cyc = {v: True}
        for t, q in enumerate(ring):
            rot[q] = [ring[(t + 1) % g], v, ring[(t - 1) % g]]
            gam[q] = None
            cyc[q] = False
        l0 = Configuration(cfg.name + "+ring", gam, rot, cyc)
        l0.validate()
        return l0, tuple(ring)

    corners, ks, m = ring_plan(cfg)
    ring = [base + 1 + t for t in range(m)]
    # corner j receives k_j consecutive ring vertices; consecutive
    # corners share one
    offs = []
    o = 0
    for k in ks:
        offs.append(o)
        o += k - 1
    fans = [[ring[(offs[j] + t) % m] for t in range(ks[j])]
            for j in range(len(ks))]

    # the outer walk runs counter to the rotations, so a fan is spliced
    # into its corner in reverse walk order
    rot = {v: list(cfg.rot[v]) for v in ids}
    for j, (v, u, w) in enumerate(corners):
        lst = rot[v]
        t = lst.index(u)
        if t == 0:
            lst.extend(reversed(fans[j]))
        else:
            if lst[t - 1] != w:
                raise InternalInvariantError("corner flanks out of order")
            lst[t:t] = reversed(fans[j])

    # a ring vertex sees the corners whose fans hold it in walk order,
    # except ring[0]: the corners at offset 0 open it and the last ones
    # close it, and its rotation starts with the closing ones
    owners = {q: [] for q in ring}
    for (v, _, _), fan in zip(corners, fans):
        for q in fan:
            owners[q].append(v)
    lead = offs.count(0)
    owners[ring[0]] = owners[ring[0]][lead:] + owners[ring[0]][:lead]
    for idx, q in enumerate(ring):
        rot[q] = [ring[(idx - 1) % m]] + owners[q] + [ring[(idx + 1) % m]]

    gam = {v: cfg.gamma[v] for v in ids}
    cyc = {v: True for v in ids}
    for q in ring:
        gam[q] = None
        cyc[q] = False
    l0 = Configuration(cfg.name + "+ring", gam, rot, cyc)
    try:
        l0.validate()
    except InputError as e:
        raise InputError(
            f"{cfg.name}: completion is not a plane triangulation: {e.message}")
    return l0, tuple(ring)


def cut_vertices(rot):
    """Vertices of a connected drawing of at least two vertices, given
    by its rotations, whose removal disconnects the rest, in id order,
    by one search per vertex."""
    cuts = []
    for v in sorted(rot):
        rest = [u for u in rot if u != v]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            for y in rot[stack.pop()]:
                if y != v and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < len(rest):
            cuts.append(v)
    return cuts


# ----------------------------------------------------------- placements

def _canon3(a, b, c):
    if a <= b and a <= c:
        return (a, b, c)
    if b <= a and b <= c:
        return (b, c, a)
    return (c, a, b)


def _oriented_triangles(rot, cyclic):
    """Clockwise facial triangles read straight off the rotation
    lists: a consecutive neighbor pair that is itself an edge."""
    adj = {v: set(ws) for v, ws in rot.items()}
    tris = set()
    for a, lst in rot.items():
        n = len(lst)
        if n < 2:
            continue
        last = n if cyclic[a] else n - 1
        for t in range(last):
            b = lst[t]
            c = lst[(t + 1) % n]
            if c in adj[b]:
                tris.add(_canon3(a, b, c))
    return tris


def brute_force_subconfig(lcfg, skel):
    """All injective placements of the labeled drawing into the
    skeleton: labels exact, adjacency preserved both ways, triangles
    landing on skeleton faces with one handedness throughout (direct
    or mirror image).  Returns [(placement, well_positioned)] in
    canonical order."""
    if len(lcfg.ids) > 9:
        raise InputError("oracle cap: at most 9 configuration vertices")
    d = skel.gamma[0]
    if d > 8:
        raise InputError("oracle cap: hub degree at most 8")
    krot = skel.rot
    kgam = skel.gamma
    kadj = {v: set(ws) for v, ws in krot.items()}
    ktris = _oriented_triangles(krot, skel.cyclic)
    ladj = {v: set(ws) for v, ws in lcfg.rot.items()}
    ltris = _oriented_triangles(lcfg.rot, lcfg.cyclic)

    order = [min(lcfg.ids)]
    left = set(lcfg.ids) - {order[0]}
    while left:
        nxt = [v for v in sorted(left) if any(u in order for u in ladj[v])]
        pick = nxt[0] if nxt else min(left)
        order.append(pick)
        left.remove(pick)

    found = []
    f = {}
    used = set()

    def extend(t):
        if t == len(order):
            same = all(_canon3(f[p], f[q], f[r]) in ktris
                       for (p, q, r) in ltris)
            mirrored = all(_canon3(f[p], f[r], f[q]) in ktris
                           for (p, q, r) in ltris)
            if not (same or mirrored):
                return
            found.append(dict(f))
            return
        v = order[t]
        anchors = [u for u in ladj[v] if u in f]
        if anchors:
            cand = set(kadj[f[anchors[0]]])
            for u in anchors[1:]:
                cand &= kadj[f[u]]
        else:
            cand = set(krot)
        for w in sorted(cand):
            if w in used or kgam[w] != lcfg.gamma[v]:
                continue
            if any(u in f and (u in ladj[v]) != (f[u] in kadj[w])
                   for u in lcfg.ids):
                continue
            f[v] = w
            used.add(w)
            extend(t + 1)
            del f[v]
            used.discard(w)

    extend(0)

    out = []
    for img in found:
        image = set(img.values())
        wp = True
        for i in range(1, d + 1):
            if i in image:
                continue
            if d + i in image and d + (i - 1 if i > 1 else d) in image:
                wp = False
                break
        out.append((img, wp))
    out.sort(key=lambda pair: tuple(pair[0][v] for v in lcfg.ids))
    return out


# ------------------------------------------------------------ symmetries

def _fan_free_bounds(a: Axle, what):
    d = a.d
    if any((a.lo[n], a.hi[n]) != (5, 12) for n in range(2 * d + 1, 5 * d + 1)):
        raise InputError(f"{what} requires a fan-free axle")
    return bytearray(a.lo), bytearray(a.hi)


def rotate_axle(a: Axle) -> Axle:
    """One-step clockwise rotation: spoke i moves to spoke i+1 and hat
    d+i to hat d+i+1, both wrapping at d; fan-free axles only.  The
    reference for symmetry_permutation."""
    d = a.d
    lo, hi = _fan_free_bounds(a, "rotate")
    for i in range(1, d + 1):
        for band in (0, d):
            lo[band + i % d + 1] = a.lo[band + i]
            hi[band + i % d + 1] = a.hi[band + i]
    return Axle(d, bytes(lo), bytes(hi))


def reflect_axle(a: Axle) -> Axle:
    """Mirror image; fan-free axles only.  Spoke i takes the old entry
    d+1-i; hat d+i (for i < d) takes the old entry 2d-i, so the hats
    between swapped spoke pairs swap too.  Hat 2d is its own mirror."""
    d = a.d
    lo, hi = _fan_free_bounds(a, "reflect")
    for i in range(1, d + 1):
        lo[i], hi[i] = a.lo[d + 1 - i], a.hi[d + 1 - i]
    for i in range(1, d):
        lo[d + i], hi[d + i] = a.lo[2 * d - i], a.hi[2 * d - i]
    return Axle(d, bytes(lo), bytes(hi))


# ------------------------------------------------------------ instances

def random_axle(d, seed) -> Axle:
    """Seeded valid axle: some spokes pinned (with optional fan
    bounds), some floored or capped, hats free-form."""
    rng = _rng(seed)
    base = trivial_axle(d)
    lo = bytearray(base.lo)
    hi = bytearray(base.hi)
    for i in range(1, d + 1):
        roll = rng.random()
        if roll < 0.35:
            k = rng.choice((5, 6, 7, 8))
            lo[i] = hi[i] = k
            for j in range(2, k - 3):
                if rng.random() < 0.4:
                    fl = rng.choice((5, 6, 7, 8, 9))
                    fu = rng.choice([u for u in (5, 6, 7, 8, 12) if u >= fl])
                    lo[j * d + i] = fl
                    hi[j * d + i] = fu
        elif roll < 0.55:
            lo[i] = rng.choice((6, 7, 8, 9))
        elif roll < 0.7:
            hi[i] = rng.choice((6, 7, 8))
            lo[i] = rng.choice([l for l in (5, 6, 7) if l < hi[i]])
    for p in range(d + 1, 2 * d + 1):
        if rng.random() < 0.4:
            l = rng.choice((5, 6, 7, 8, 9))
            u = rng.choice([u for u in (5, 6, 7, 8, 12) if u >= l])
            lo[p] = l
            hi[p] = u
    return Axle(d, bytes(lo), bytes(hi))


def random_condition(a: Axle, seed, compatible=True):
    """Seeded condition; by default one compatible with the axle."""
    rng = _rng(seed)
    d = a.d
    pool = []
    for n in range(1, 5 * d + 1):
        for m in (-8, -7, -6, -5, 6, 7, 8, 9):
            lo, hi = a.bounds(n)
            if m < 0:
                ok = lo <= -m < hi
            else:
                ok = lo < m <= hi
            if ok and n > 2 * d:
                i = (n - 1) % d + 1
                j = (n - i) // d
                sl, su = a.bounds(i)
                ok = sl == su >= j + 4
            if ok == compatible:
                pool.append((n, m))
    if not pool:
        raise InputError("no condition with the requested compatibility")
    return pool[rng.randrange(len(pool))]


def random_outlets(d, seed, count, max_entries=4):
    """Seeded list of structurally valid outlets: distinct in-range
    positions, sound intervals, nothing slack, fan entries only under
    a pinning spoke entry."""
    rng = _rng(seed)
    outlets = []
    for _ in range(count):
        entries = {}
        want = rng.randrange(1, max_entries + 1)
        while len(entries) < want:
            if rng.random() < 0.3 and entries:
                # grow a fan under some already pinned spoke entry
                pinned = [(p, l) for p, (l, u) in entries.items()
                          if p <= d and l == u and l >= 6]
                if pinned:
                    i, k = pinned[rng.randrange(len(pinned))]
                    j = rng.randrange(2, k - 3) if k > 6 else 2
                    p = j * d + i
                    if p not in entries:
                        fl = rng.choice((5, 6, 7, 8, 9))
                        fu = rng.choice([u for u in (5, 6, 7, 8, 12)
                                         if u >= fl])
                        if (fl, fu) != (5, 12):
                            entries[p] = (fl, fu)
                    continue
            p = rng.randrange(1, 2 * d + 1)
            if p in entries:
                continue
            if p <= d and rng.random() < 0.6:
                k = rng.choice((6, 7, 8))
                entries[p] = (k, k)
            else:
                l = rng.choice((5, 6, 7, 8, 9))
                u = rng.choice([u for u in (5, 6, 7, 8, 12) if u >= l])
                if (l, u) == (5, 12):
                    continue
                entries[p] = (l, u)
        value = rng.choice((1, 1, 1, -1, -2, 2))
        outlets.append(Outlet(value, tuple(
            (p, l, u) for p, (l, u) in sorted(entries.items()))))
    return outlets
