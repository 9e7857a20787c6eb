"""Labeled plane near-triangulations, their free completions,
enhancements, and the probe sequences used to search skeletons.

A database build plans each drawing's ring, and builds and validates it
only for a single vertex or a cut vertex, whose enhancement reads it,
or for a record the plan shows invalid, whose completion names the
defect.

A drawing is a rotation system: rot[v] lists the neighbors of v in
clockwise order.  cyclic[v] tells whether that list is the full cycle
(v is interior) or a linear run whose two ends flank the infinite
region.  gamma[v] is the labeled degree; ring vertices added by
completion carry None.

The corner of a directed edge (u, v) sits at v, between u and w, the
clockwise predecessor of u around v; the next edge of the same face is
(v, w).  A corner is open when it touches the infinite region, which
shows up either as the wrap of a linear list or as a flanking pair that
is not itself an edge.  One pass over the corners finds the closed
triangles; only the faces that are not closed triangles are traced.  A
valid drawing has exactly one all-open face and every other face a
closed triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InputError, InternalInvariantError, integers, records,
                     split_lines)


def _reach(adj, start, avoid=None):
    """Vertices reachable from start along edges that miss avoid; adj
    maps each vertex to its neighbors."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen and y != avoid:
                seen.add(y)
                stack.append(y)
    return seen


def _cut_vertices(adj, ids):
    """Vertices of a connected drawing of at least two vertices whose
    removal disconnects the rest, in id order."""
    cuts = []
    for v in ids:
        start = ids[1] if v == ids[0] else ids[0]
        if len(_reach(adj, start, v)) != len(ids) - 1:
            cuts.append(v)
    return cuts


class Configuration:
    def __init__(self, name, gamma, rot, cyclic, line=None):
        self.name = name
        self.line = line     # the 'config' line of a parsed record
        self.gamma = dict(gamma)
        self.rot = {v: list(ws) for v, ws in rot.items()}
        self.cyclic = dict(cyclic)
        self.ids = sorted(self.rot)

    def __repr__(self):
        return f"Configuration({self.name}, {len(self.ids)} vertices)"

    def _check_graph(self):
        name = self.name
        if not self.rot:
            raise InputError(f"{name}: no vertices")
        vs = self.rot.keys()
        if self.gamma.keys() != vs or self.cyclic.keys() != vs:
            raise InputError(f"{name}: vertex tables out of step")
        adj = {}
        for v, lst in self.rot.items():
            adj[v] = near = frozenset(lst)
            if v in near:
                raise InputError(f"{name}: vertex {v} lists itself")
            if len(near) != len(lst):
                raise InputError(f"{name}: vertex {v} repeats a neighbor")
        get = adj.get
        for v, lst in self.rot.items():
            for u in lst:
                if v not in get(u, ()):
                    raise InputError(f"{name}: edge {v}-{u} is one-sided")
        self.adj = adj
        # rot, not adj: lists iterate faster than frozensets
        if len(_reach(self.rot, self.ids[0])) != len(self.ids):
            raise InputError(f"{name}: drawing is not connected")

    def read_corners(self):
        """Read every corner of a drawing whose `adj` is set, once, and
        cache `third` and `triangles` from the closed triangles.
        Returns the open and the closed corners, each as (u, v) -> w."""
        self.third = third = {}
        self.triangles = ()
        if len(self.ids) == 1:
            return {}, {}
        adj = self.adj
        opened = {}
        closed = {}
        for v, lst in self.rot.items():
            if self.cyclic[v]:
                w = lst[-1]
                us = lst
            else:
                w = lst[0]
                opened[(w, v)] = lst[-1]
                us = lst[1:]
            for u in us:
                if w in adj[u]:
                    closed[(u, v)] = w
                else:
                    opened[(u, v)] = w
                w = u
        # a closed triangle (u, v, w) is met once, from its least vertex
        tris = []
        get = closed.get
        for (u, v), w in closed.items():
            if u < v and u < w and get((v, w)) == u and get((w, u)) == v:
                third[(u, v)] = w
                third[(v, w)] = u
                third[(w, u)] = v
                tris.append((u, v, w))
        self.triangles = tuple(sorted(tris))
        return opened, closed

    def validate_light(self):
        """Adjacency and connectivity checks plus the corner map, with
        no demand that every region be a triangle.  Restrictions of
        valid drawings (where regions merge) go through here."""
        self._check_graph()
        self.read_corners()
        return self

    def validate(self):
        """Check the drawing and cache adjacency, triangles, and the
        outer walk.  Raises InputError on any defect."""
        name = self.name
        self._check_graph()
        opened, closed = self.read_corners()
        self.outer = ()
        if len(self.ids) == 1:
            return self
        # the faces off the closed triangles, each traced from its
        # least edge
        left = dict(opened)
        if len(self.third) != len(closed):
            for e, w in closed.items():
                if e not in self.third:
                    left[e] = w
        rest = []
        for e0 in sorted(left):
            w = left.pop(e0, None)
            if w is None:
                continue
            orbit = [e0]
            e = (e0[1], w)
            while e != e0:
                orbit.append(e)
                e = (e[1], left.pop(e))
            rest.append(orbit)
        for orbit in rest:
            if not all(e in opened for e in orbit):
                raise InputError(
                    f"{name}: face through {orbit[0]} is neither a triangle "
                    f"nor the infinite region")
        if len(rest) != 1:
            raise InputError(
                f"{name}: expected one infinite region, found {len(rest)}")
        edges = sum(len(lst) for lst in self.rot.values()) // 2
        if len(self.ids) - edges + len(self.triangles) + 1 != 2:
            raise InputError(f"{name}: face count breaks the plane formula")
        self.outer = tuple(rest[0])
        boundary = {v for _, v in opened}
        for v in self.ids:
            g = self.gamma[v]
            deg = len(self.rot[v])
            if g is None:
                if v not in boundary:
                    raise InputError(
                        f"{name}: unlabeled vertex {v} is interior")
                continue
            if g < deg:
                raise InputError(
                    f"{name}: vertex {v} labeled {g} below its degree {deg}")
            if (g == deg) != (v not in boundary):
                raise InputError(
                    f"{name}: vertex {v} labeled {g} does not match its "
                    f"boundary status")
        return self


def restrict_drawing(rot, cyclic, keep):
    """Induced subdrawing data: rotations filtered to `keep`, original
    list order (hence orientation) preserved."""
    new_rot = {v: [w for w in rot[v] if w in keep] for v in keep}
    new_cyc = {v: cyclic[v] for v in keep}
    return new_rot, new_cyc


def parse_configurations(text):
    configs = []
    name = None
    want = 0
    start = 0
    gamma = {}
    rot = {}
    for lineno, parts in records(text):
        if parts[0] == "config":
            if name is not None:
                raise InputError(f"config {name!r} not closed with 'end'",
                                 lineno)
            if len(parts) != 3:
                raise InputError("expected 'config <name> <nVertices>'",
                                 lineno)
            want, = integers(parts[2:], "vertex count must be an integer",
                             lineno)
            name = parts[1]
            start = lineno
            gamma = {}
            rot = {}
        elif parts[0] == "v":
            if name is None:
                raise InputError("vertex line outside a config record", lineno)
            if len(parts) < 4 or parts[3] != ":":
                raise InputError("expected 'v <id> <gamma> : <neighbors>'",
                                 lineno)
            vid, g, *neigh = integers(parts[1:3] + parts[4:],
                                      "non-integer field in vertex line",
                                      lineno)
            if vid in rot:
                raise InputError(f"vertex {vid} listed twice", lineno)
            if g > 11:
                raise InputError(
                    f"vertex {vid} labeled {g}; labels above 11 are rejected",
                    lineno)
            if g < 1:
                raise InputError(f"vertex {vid} labeled {g}", lineno)
            gamma[vid] = g
            rot[vid] = neigh
        elif parts[0] == "end":
            if name is None:
                raise InputError("'end' outside a config record", lineno)
            if len(rot) != want:
                raise InputError(
                    f"config {name} declares {want} vertices, lists {len(rot)}",
                    lineno)
            for vid, neigh in rot.items():
                for u in neigh:
                    if u not in rot:
                        raise InputError(
                            f"config {name}: vertex {vid} lists unknown "
                            f"neighbor {u}", lineno)
            cyclic = {v: gamma[v] == len(rot[v]) for v in rot}
            cfg = Configuration(name, gamma, rot, cyclic, start)
            try:
                cfg.validate()
            except InputError as e:
                raise InputError(e.message, start)
            configs.append(cfg)
            name = None
        else:
            raise InputError(f"unexpected {parts[0]!r}", lineno)
    if name is not None:
        lines = split_lines(text)
        last = len(lines) - (lines[-1] == "")
        raise InputError(f"config {name!r} not closed with 'end'", last)
    return configs


def centers(cfg: Configuration):
    """Vertices from which everything is within two steps."""
    out = []
    for v in cfg.ids:
        near = {v} | set(cfg.rot[v])
        for u in cfg.rot[v]:
            near |= cfg.adj[u]
        if len(near) == len(cfg.ids):
            out.append(v)
    return out


def _ring_plan(cfg: Configuration):
    """The ring a free completion of cfg (at least two vertices) would
    splice in: the corners (v, u, w) of the infinite region in walk
    order from the smallest directed edge of the outer face, the count
    k of ring vertices each corner receives, and the ring size m.
    Raises InputError on a boundary vertex no ring can serve and on a
    ring too short to be a circuit."""
    walk = list(cfg.outer)
    s = walk.index(min(walk))
    walk = walk[s:] + walk[:s]
    corners = []
    for t, (u, v) in enumerate(walk):
        _, w = walk[(t + 1) % len(walk)]
        corners.append((v, u, w))
    hits = {}
    for v, _, _ in corners:
        hits[v] = hits.get(v, 0) + 1
    ks = []
    for v, u, w in corners:
        g = cfg.gamma[v]
        deg = len(cfg.rot[v])
        if hits[v] == 1:
            k = g - deg
        elif hits[v] == 2:
            if g - deg != 2:
                raise InputError(
                    f"{cfg.name}: vertex {v} splits the boundary but is "
                    f"labeled {g} with degree {deg}")
            k = 1
        else:
            raise InputError(
                f"{cfg.name}: vertex {v} touches the infinite region "
                f"{hits[v]} times")
        ks.append(k)
    m = sum(k - 1 for k in ks)
    if m < 3:
        raise InputError(f"{cfg.name}: ring of {m} vertices is not a circuit")
    return corners, ks, m


def _needs_completion(cfg: Configuration):
    """Whether a build reads cfg's completion: a single vertex or a cut
    vertex (met twice on the outer walk) for `enhance`, or a fan of
    k > m ring vertices, which repeats a neighbor.  Otherwise the
    completion is valid by construction and cfg its own enhancement."""
    if len(cfg.ids) == 1:
        return True
    corners, ks, m = _ring_plan(cfg)
    return len({v for v, _, _ in corners}) < len(corners) or max(ks) > m


def free_completion(cfg: Configuration):
    """Extend the drawing by a surrounding ring so every labeled
    vertex reaches its labeled degree.  Returns (completion, ring).
    A build calls this only where `_needs_completion` holds."""
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

    corners, ks, m = _ring_plan(cfg)
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


def enhance(cfg: Configuration, l0: Configuration, ring):
    """The search drawing J: the configuration itself when 2-connected,
    else augmented by one ring vertex tying the branches together.
    Returns (J, extra) with extra the added vertex or None."""
    ids = cfg.ids
    if len(ids) == 1:
        v = ids[0]
        extra = ring[0]
        keep = {v, extra}
    else:
        cuts = _cut_vertices(cfg.adj, ids)
        if not cuts:
            return cfg, None
        if len(cuts) != 1:
            raise InputError(
                f"{cfg.name}: {len(cuts)} cut vertices, expected exactly one")
        v = cuts[0]
        comps = []
        left = set(ids) - {v}
        while left:
            comp = _reach(cfg.adj, min(left), v)
            comps.append(comp)
            left -= comp
        ringset = set(ring)
        candidates = []
        for r in l0.rot[v]:
            if r not in ringset:
                continue
            touch = set(l0.adj[r]) - ringset
            if all(comp & touch for comp in comps):
                candidates.append(r)
        if not candidates:
            raise InputError(
                f"{cfg.name}: no ring vertex ties the branches together")
        extra = min(candidates)
        keep = set(ids) | {extra}
    rot, cyc = restrict_drawing(l0.rot, l0.cyclic, keep)
    gam = {v: l0.gamma[v] for v in keep}
    j = Configuration(cfg.name + "+J", gam, rot, cyc).validate_light()
    if _cut_vertices(j.adj, j.ids):
        raise InputError(f"{cfg.name}: enhancement is not 2-connected")
    return j, extra


def make_question(cfg: Configuration, jcfg: Configuration, extra, cs):
    """Probe sequence: two adjacent seeds, then repeatedly a clockwise
    corner of J over two placed vertices, until the whole labeled
    drawing is covered.  cs holds cfg's centers.  Each probe is
    (u, v, z, xi)."""
    gam = cfg.gamma
    if not cs:
        raise InputError(f"{cfg.name}: radius exceeds two")
    z0 = min(cs, key=lambda v: (-gam[v], v))
    if len(cfg.ids) == 1:
        if extra is None:
            raise InternalInvariantError("isolated vertex without a ring seed")
        z1, x1 = extra, 0
    else:
        z1 = min(cfg.adj[z0], key=lambda v: (-gam[v], v))
        x1 = gam[z1]
    queries = [(None, None, z0, gam[z0]), (None, None, z1, x1)]
    placed = [z0, z1]
    todo = set(cfg.ids) - {z0, z1}
    while todo:
        best = None
        for u in placed:
            for v in placed:
                z = jcfg.third.get((u, v))
                if z is None or z in placed:
                    continue
                xi = 0 if z == extra else gam[z]
                key = (z == extra, -xi, z, u, v)
                if best is None or key < best[0]:
                    best = (key, (u, v, z, xi))
        if best is None:
            raise InputError(
                f"{cfg.name}: probe sequence cannot reach {sorted(todo)}")
        queries.append(best[1])
        placed.append(best[1][2])
        todo.discard(best[1][2])
    return tuple(queries)


def reflect_question(question):
    return tuple(question[:2]) + tuple(
        (v, u, z, xi) for (u, v, z, xi) in question[2:])


def question_problems(question, cfg, jcfg, extra):
    """Static checks on a probe sequence; empty list when sound."""
    probs = []
    zs = [q[2] for q in question]
    if len(set(zs)) != len(zs):
        probs.append("repeated probe vertex")
    if not set(cfg.ids) <= set(zs):
        probs.append("probes do not cover the labeled drawing")
    if len(question) < 2:
        probs.append("fewer than two seed probes")
        return probs
    z0, z1 = question[0][2], question[1][2]
    if len(cfg.ids) == 1:
        if z1 != extra or question[1][3] != 0:
            probs.append("isolated drawing must seed on its ring neighbor")
    elif z1 not in cfg.adj.get(z0, frozenset()):
        probs.append("seed pair not adjacent")
    for t, (u, v, z, xi) in enumerate(question):
        want = 0 if z == extra else cfg.gamma.get(z)
        if xi != want:
            probs.append(f"probe {t} carries label {xi}, vertex has {want}")
        if t < 2:
            continue
        if u not in zs[:t] or v not in zs[:t]:
            probs.append(f"probe {t} leans on unplaced vertices")
        if jcfg.third.get((u, v)) != z:
            probs.append(f"probe {t} is not a clockwise corner")
    return probs


@dataclass(frozen=True)
class GoodConfiguration:
    config: Configuration
    question: tuple
    reflection: tuple

    @property
    def name(self):
        return self.config.name


def build_good_configuration(cfg: Configuration) -> GoodConfiguration:
    """Complete, enhance and probe cfg; an InputError names cfg's
    'config' line when it names none."""
    try:
        cs = centers(cfg)
        if not cs:
            raise InputError(f"{cfg.name}: radius exceeds two")
        if _needs_completion(cfg):
            j, extra = enhance(cfg, *free_completion(cfg))
        else:
            j, extra = cfg, None
        q = make_question(cfg, j, extra, cs)
    except InputError as e:
        if e.line is None:
            e.line = cfg.line
        raise
    probs = question_problems(q, cfg, j, extra)
    if probs:
        raise InternalInvariantError(
            f"{cfg.name}: generated probes fail their checks: {probs}")
    return GoodConfiguration(cfg, q, reflect_question(q))


def load_database(text):
    return [build_good_configuration(cfg)
            for cfg in parse_configurations(text)]
