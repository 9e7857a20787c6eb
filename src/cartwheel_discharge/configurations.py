"""Labeled plane near-triangulations, their enhancements, and the
probe sequences used to search skeletons.

A database build plans each drawing's free completion, the ring of new
vertices that brings every labeled vertex to its labeled degree, and
never draws it.  The plan names every defect the drawn ring would show,
and gives the enhancement the probes run over: a corner map and at
most one added ring vertex.  That is the drawing's own corners when it
is 2-connected, no corners beside a single vertex, and at a cut vertex
the drawing's corners plus the triangles the ring closes over its
outer edges with one ring vertex.  `oracles.free_completion` draws and
validates the ring, as the reference for both.

A drawing is a rotation system: rot[v] lists the neighbors of v in
clockwise order.  cyclic[v] tells whether that list is the full cycle
(v is interior) or a linear run whose two ends flank the infinite
region.  gamma[v] is the labeled degree; ring vertices carry None.

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


def _reach(adj, start):
    """Vertices reachable from start; adj maps each vertex to its
    neighbors."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


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

    def validate(self):
        """Check the drawing and cache adjacency, the corner map `third`
        of its closed triangles, `triangles`, and the outer walk.  Every
        corner is read once.  Raises InputError on any defect."""
        name = self.name
        self._check_graph()
        self.third = third = {}
        self.triangles = ()
        self.outer = ()
        if len(self.ids) == 1:
            return self
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
        # the faces off the closed triangles, each traced from its
        # least edge
        left = dict(opened)
        if len(third) != len(closed):
            for e, w in closed.items():
                if e not in third:
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


def ring_plan(cfg: Configuration):
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


def enhance(cfg: Configuration):
    """The corner map the probes run over and the vertex `extra` it adds
    to cfg, read from the ring plan: (cfg.third, None) when cfg is
    2-connected; for a single vertex, no corners and one new vertex;
    for one cut vertex, cfg's corners plus the triangles the drawn ring
    closes over cfg's outer edges with `extra`, the lesser ring vertex
    of the cut vertex's two corners, which the fans of the outer
    neighbors on either side share, one in each branch.  Raises
    InputError where the drawn ring would not validate, which is only
    where some vertex's fans repeat a ring vertex."""
    ids = cfg.ids
    name = cfg.name
    extra = ids[-1] + 1
    if len(ids) == 1:
        g = cfg.gamma[ids[0]]
        if g is None or g < 3:
            raise InputError(f"{name}: cannot ring a vertex labeled {g}")
        return {}, extra
    corners, ks, m = ring_plan(cfg)
    if len({v for v, _, _ in corners}) == len(corners) and max(ks) <= m:
        return cfg.third, None
    # fan t holds ks[t] consecutive ring offsets (mod m); consecutive
    # fans share one
    fans = []
    o = 0
    for k in ks:
        fans.append([(o + t) % m for t in range(k)])
        o += k - 1
    at = {}
    for t, (v, _, _) in enumerate(corners):
        at.setdefault(v, []).append(t)
    for v in sorted(at):
        held = [r for t in at[v] for r in fans[t]]
        if len(set(held)) < len(held):
            raise InputError(
                f"{name}: completion is not a plane triangulation: "
                f"{name}+ring: vertex {v} repeats a neighbor")
    cuts = [v for v in sorted(at) if len(at[v]) == 2]
    if len(cuts) != 1:
        raise InputError(
            f"{name}: {len(cuts)} cut vertices, expected exactly one")
    r = min(fans[t][0] for t in at[cuts[0]])
    extra += r
    # the ring closes a triangle over each outer edge (u, v) whose two
    # corners both hold r in their fans
    third = dict(cfg.third)
    for t, (v, u, _) in enumerate(corners):
        if r in fans[t] and r in fans[t - 1]:
            third[(u, v)] = extra
            third[(v, extra)] = u
            third[(extra, u)] = v
    return third, extra


def make_question(cfg: Configuration, third, extra, cs):
    """Probe sequence: two adjacent seeds, then repeatedly a clockwise
    corner of the enhancement (third, extra) over two placed vertices,
    until the whole labeled drawing is covered.  cs holds cfg's
    centers.  Each probe is (u, v, z, xi)."""
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
                z = third.get((u, v))
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


# A packed label count holds the count of label g in bits 8g .. 8g+6
# under a guard bit 8g+7, for g up to 12, like the byte lanes of the
# kernels.  Adding LABEL_GUARD to one count and subtracting another
# clears the guard of exactly the labels where the second is larger.
LABEL_GUARD = int.from_bytes(b"\x80" * 13, "little")


@dataclass(frozen=True)
class GoodConfiguration:
    config: Configuration
    question: tuple
    reflection: tuple
    need: int        # packed count of the labels the question places

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
        q = make_question(cfg, *enhance(cfg), cs)
    except InputError as e:
        if e.line is None:
            e.line = cfg.line
        raise
    # q places each vertex of cfg under its label, and the ring vertex
    # of the enhancement, if any, under none
    need = 0
    for g in cfg.gamma.values():
        need += 1 << 8 * g
    return GoodConfiguration(cfg, q, reflect_question(q), need)


def load_database(text):
    return [build_good_configuration(cfg)
            for cfg in parse_configurations(text)]
