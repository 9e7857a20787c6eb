"""Configuration parsing, completions, enhancements, and probe sequences."""

import collections
import hashlib
import random

import pytest

from _fixtures import (
    CONFIG_BOWTIE,
    CONFIG_DIAMOND,
    CONFIG_EDGE55,
    CONFIG_LONG_PATH,
    CONFIG_TRI666,
    CONFIGS_DB,
    fuzz_corpus,
    label_mutants,
    make_config,
    question_problems,
    record_text,
    ring_corners,
    seeded_defect,
)
from cartwheel_discharge.configurations import (
    Configuration,
    build_good_configuration,
    centers,
    enhance,
    load_database,
    make_question,
    parse_configurations,
    reflect_question,
    restrict_drawing,
    ring_plan,
)
from cartwheel_discharge.errors import CartwheelError, InputError
from cartwheel_discharge.oracles import cut_vertices, free_completion


def parse_one(text):
    cfgs = parse_configurations(text)
    assert len(cfgs) == 1
    return cfgs[0]


# -------------------------------------------------------------- parsing

def test_parse_database_names_and_sizes():
    cfgs = parse_configurations(CONFIGS_DB)
    assert [c.name for c in cfgs] == [
        "edge66", "edge56", "dot5", "edge55", "bowtie", "tri666", "diamond"]
    assert [len(c.ids) for c in cfgs] == [2, 2, 1, 2, 5, 3, 4]


def test_parse_strips_comments_and_blanks():
    text = "# heading\n\nconfig dot5 1  # trailing\nv 1 5 :\nend\n"
    assert parse_one(text).gamma == {1: 5}


def test_parse_rejects_duplicate_vertex():
    text = "config bad 2\nv 1 5 : 2\nv 1 5 : 2\nend\n"
    with pytest.raises(InputError, match="vertex 1 listed twice") as e:
        parse_configurations(text)
    assert e.value.line == 3


def test_parse_rejects_labels_above_eleven():
    text = "config bad 1\nv 1 12 :\nend\n"
    with pytest.raises(InputError, match="labels above 11 are rejected"):
        parse_configurations(text)


def test_parse_rejects_label_below_one():
    text = "config bad 1\nv 1 0 :\nend\n"
    with pytest.raises(InputError, match="labeled 0"):
        parse_configurations(text)


def test_parse_rejects_unknown_neighbor():
    text = "config bad 2\nv 1 6 : 2\nv 2 6 : 3\nend\n"
    with pytest.raises(InputError, match="unknown neighbor 3"):
        parse_configurations(text)


def test_parse_rejects_vertex_count_mismatch():
    text = "config bad 2\nv 1 5 :\nend\n"
    with pytest.raises(InputError, match="declares 2 vertices, lists 1"):
        parse_configurations(text)


def test_parse_rejects_end_outside_record():
    with pytest.raises(InputError, match="'end' outside"):
        parse_configurations("end\n")


def test_parse_rejects_vertex_outside_record():
    with pytest.raises(InputError, match="vertex line outside"):
        parse_configurations("v 1 5 :\n")


def test_parse_rejects_unclosed_record():
    # the error names the file's last line, blank or not
    for text, last in (("config bad 1\nv 1 5 :\n", 2),
                       ("config bad 1\nv 1 5 :", 2),
                       ("config bad 1\nv 1 5 :\n\n", 3),
                       ("config bad 1\nv 1 5 :\n# tail", 3),
                       ("config bad 1\r\nv 1 5 :\r\n\r\n", 3),
                       ("config bad 1\rv 1 5 :\r\r", 3)):
        with pytest.raises(InputError, match="not closed with 'end'") as e:
            parse_configurations(text)
        assert e.value.line == last


def test_parse_rejects_missing_colon():
    text = "config bad 2\nv 1 5 2\nv 2 5 1\nend\n"
    with pytest.raises(InputError, match="expected 'v <id> <gamma>"):
        parse_configurations(text)


def test_parse_rejects_non_integer_field():
    text = "config bad 1\nv one 5 :\nend\n"
    with pytest.raises(InputError, match="non-integer field"):
        parse_configurations(text)


def test_parse_rejects_unexpected_word():
    with pytest.raises(InputError, match="unexpected 'vertex'"):
        parse_configurations("vertex 1\n")


def test_parse_points_validation_errors_at_the_record():
    # the record starts on line 2; the defect is only visible at 'end'
    text = "# db\nconfig bad 2\nv 1 5 : 2\nv 2 1 : 1\nend\n"
    with pytest.raises(InputError, match="boundary status") as e:
        parse_configurations(text)
    assert e.value.line == 2


# ----------------------------------------------------------- validation

def test_validate_rejects_twisted_rotations():
    # all-closed faces that are not triangles: not a plane drawing
    text = ("config k4twist 4\n"
            "v 1 3 : 2 3 4\nv 2 3 : 1 3 4\nv 3 3 : 1 2 4\nv 4 3 : 1 2 3\n"
            "end\n")
    with pytest.raises(InputError, match="neither a triangle"):
        parse_configurations(text)


def test_validate_rejects_two_infinite_regions():
    text = ("config square 4\n"
            "v 1 3 : 2 4\nv 2 3 : 3 1\nv 3 3 : 4 2\nv 4 3 : 1 3\n"
            "end\n")
    with pytest.raises(InputError, match="expected one infinite region"):
        parse_configurations(text)


WHEEL_ROT = {1: [2, 4, 3], 2: [3, 4, 1], 3: [1, 4, 2], 4: [1, 2, 3]}


def test_validate_accepts_interior_hub():
    make_config("wheel", {1: 4, 2: 4, 3: 4, 4: 3}, WHEEL_ROT)


def test_validate_rejects_interior_label_mismatch():
    cfg = Configuration("wheel", {1: 4, 2: 4, 3: 4, 4: 4}, WHEEL_ROT,
                        {1: False, 2: False, 3: False, 4: True})
    with pytest.raises(InputError, match="does not match its boundary"):
        cfg.validate()


def test_validate_rejects_label_below_degree():
    cfg = Configuration("wheel", {1: 4, 2: 4, 3: 4, 4: 2}, WHEEL_ROT,
                        {1: False, 2: False, 3: False, 4: True})
    with pytest.raises(InputError, match="labeled 2 below its degree 3"):
        cfg.validate()


def test_validate_rejects_one_sided_edge():
    cfg = Configuration("lop", {1: 5, 2: 5}, {1: [2], 2: []},
                        {1: False, 2: False})
    with pytest.raises(InputError, match="edge 1-2 is one-sided"):
        cfg.validate()


def test_validate_rejects_self_listing():
    cfg = Configuration("loop", {1: 5}, {1: [1]}, {1: False})
    with pytest.raises(InputError, match="lists itself"):
        cfg.validate()


def test_validate_rejects_disconnected_drawing():
    cfg = Configuration("two", {1: 5, 2: 5, 3: 5, 4: 5},
                        {1: [2], 2: [1], 3: [4], 4: [3]},
                        {v: False for v in range(1, 5)})
    with pytest.raises(InputError, match="not connected"):
        cfg.validate()


def test_validate_rejects_tables_out_of_step():
    cfg = Configuration("gap", {1: 5}, {1: [2], 2: [1]},
                        {1: False, 2: False})
    with pytest.raises(InputError, match="out of step"):
        cfg.validate()


def k7_torus():
    """K7 drawn on the torus: every face a closed triangle, no corner
    open, so no infinite region at all."""
    return {v: [(v + k - 1) % 7 + 1 for k in (1, 3, 2, 6, 4, 5)]
            for v in range(1, 8)}


def test_validate_rejects_a_drawing_with_no_infinite_region():
    rot = k7_torus()
    cfg = Configuration("k7", {v: 6 for v in rot}, rot,
                        {v: True for v in rot})
    with pytest.raises(InputError) as e:
        cfg.validate()
    assert e.value.message == "k7: expected one infinite region, found 0"


def test_validate_rejects_a_torus_with_one_face_opened():
    # open face {1, 2, 4}: each of its vertices turns linear, its list
    # rotated so that the other two are its ends
    rot = k7_torus()
    gamma = {v: 6 for v in rot}
    cyclic = {v: True for v in rot}
    face = {1, 2, 4}
    for v in face:
        lst = rot[v]
        t = next(t for t in range(6) if {lst[t - 1], lst[t]} == face - {v})
        rot[v] = lst[t:] + lst[:t]
        gamma[v] = 7
        cyclic[v] = False
    cfg = Configuration("k7open", gamma, rot, cyclic)
    with pytest.raises(InputError) as e:
        cfg.validate()
    assert e.value.message == "k7open: face count breaks the plane formula"


def test_validate_rejects_a_repeated_neighbor():
    cfg = Configuration("twice", {1: 5, 2: 5}, {1: [2, 2], 2: [1]},
                        {1: False, 2: False})
    with pytest.raises(InputError) as e:
        cfg.validate()
    assert e.value.message == "twice: vertex 1 repeats a neighbor"


def test_validate_rejects_an_unlabeled_interior_vertex():
    cfg = Configuration("wheel", {1: 4, 2: 4, 3: 4, 4: None}, WHEEL_ROT,
                        {1: False, 2: False, 3: False, 4: True})
    with pytest.raises(InputError) as e:
        cfg.validate()
    assert e.value.message == "wheel: unlabeled vertex 4 is interior"


@pytest.mark.parametrize("text, message", [
    ("config edge66 2\nv 1 2 : 2\nv 2 6 : 1\nend\n",
     "edge66: completion is not a plane triangulation: edge66+ring: "
     "vertex 2 repeats a neighbor"),
    ("config e33 2\nv 1 3 : 2\nv 2 3 : 1\nend\n",
     "e33: ring of 2 vertices is not a circuit"),
    ("config dot2 1\nv 1 2 :\nend\n",
     "dot2: cannot ring a vertex labeled 2"),
], ids=["completion", "ring", "dot"])
def test_build_messages(text, message):
    with pytest.raises(InputError) as e:
        load_database(text)
    assert e.value.message == message
    assert e.value.line == 1


def _outcome(cfg, check):
    try:
        check(cfg)
    except InputError as e:
        return e.message
    return (sorted((v, sorted(ws)) for v, ws in cfg.adj.items()),
            sorted(cfg.third.items()), cfg.triangles,
            getattr(cfg, "outer", None))


def test_validation_of_mutants_keeps_its_digest():
    # seeded mutants of the fixture drawings and their completions, each
    # validated, against a fixed digest: a change to any verdict,
    # message, corner, triangle or outer walk shows
    drawings = [parse_one(CONFIG_LONG_PATH)]
    for cfg in parse_configurations(CONFIGS_DB):
        drawings += [cfg, free_completion(cfg)[0]]
    rng = random.Random("validate")
    h = hashlib.sha256()
    messages = set()
    for cfg in drawings:
        for _ in range(150):
            m = seeded_defect(cfg, rng)
            out = _outcome(Configuration(*m), Configuration.validate)
            h.update(repr(out).encode())
            if isinstance(out, str):
                messages.add(out.split(": ", 1)[1])
    kinds = {k for k in ("is neither a triangle", "infinite region, found",
                         "one-sided", "not connected", "below its degree",
                         "boundary status", "is interior")
             if any(k in msg for msg in messages)}
    assert len(kinds) == 7, kinds
    assert h.hexdigest() == (
        "2e45325241ce9d427ce5c75caa0662c7310ad3a921a857c7186c77cef1fab8e6")


# ---------------------------------------- the drawn ring, in oracles.py

def test_completion_of_an_edge_golden():
    cfg = parse_one(CONFIG_EDGE55)
    l0, ring = free_completion(cfg)
    assert ring == (3, 4, 5, 6, 7, 8)
    assert l0.rot == {
        1: [2, 3, 8, 7, 6],
        2: [1, 6, 5, 4, 3],
        3: [8, 1, 2, 4],
        4: [3, 2, 5],
        5: [4, 2, 6],
        6: [5, 2, 1, 7],
        7: [6, 1, 8],
        8: [7, 1, 3],
    }
    assert all(l0.gamma[q] is None for q in ring)
    assert all(l0.cyclic[v] for v in cfg.ids)


def test_completion_of_the_bowtie_golden():
    cfg = parse_one(CONFIG_BOWTIE)
    l0, ring = free_completion(cfg)
    assert ring == (6, 7, 8, 9, 10, 11, 12, 13)
    assert l0.rot[1] == [2, 3, 6, 4, 5, 10]
    assert l0.rot[2] == [3, 1, 10, 9, 8]
    assert l0.rot[3] == [1, 2, 8, 7, 6]
    assert l0.rot[4] == [5, 1, 6, 13, 12]
    assert l0.rot[5] == [1, 4, 12, 11, 10]
    assert l0.rot[6] == [13, 4, 1, 3, 7]
    assert l0.rot[7] == [6, 3, 8]
    assert l0.rot[8] == [7, 3, 2, 9]
    assert l0.rot[9] == [8, 2, 10]
    assert l0.rot[10] == [9, 2, 1, 5, 11]
    assert l0.rot[11] == [10, 5, 12]
    assert l0.rot[12] == [11, 5, 4, 13]
    assert l0.rot[13] == [12, 4, 6]


def test_completion_of_a_dot():
    cfg = parse_one("config dot5 1\nv 1 5 :\nend\n")
    l0, ring = free_completion(cfg)
    assert ring == (2, 3, 4, 5, 6)
    assert l0.rot[1] == [2, 3, 4, 5, 6]
    assert l0.rot[2] == [3, 1, 6]


def test_completion_reaches_every_label():
    # free_completion splices gamma - deg ring vertices into a boundary
    # vertex met once on the outer walk, one into each of the two
    # corners of a vertex met twice (gamma - deg = 2 is checked), and
    # none into an interior vertex (gamma = deg is validated).  So each
    # labeled vertex of a completion has degree gamma: on the fixture
    # database and on a seeded label and rotation fuzz of it
    for cfg in parse_configurations(CONFIGS_DB):
        l0, ring = free_completion(cfg)
        for v in cfg.ids:
            assert len(l0.rot[v]) == cfg.gamma[v]
        assert len(ring) >= 3
    completed = split = 0
    for mutant in label_mutants("completion", 300):
        try:
            l0, _ = free_completion(mutant)
        except InputError:
            continue
        for v in mutant.ids:
            assert len(l0.rot[v]) == mutant.gamma[v], (
                mutant.name, mutant.gamma, mutant.rot)
        completed += 1
        walk = [v for _, v in mutant.outer]
        split += any(walk.count(v) == 2 for v in mutant.ids)
    assert completed >= 1000 and split >= 50, (completed, split)


def test_build_skips_only_completions_valid_by_construction():
    # where enhance returns cfg's own corners (every boundary vertex met
    # once on the outer walk, every fan k <= m), the drawn ring
    # validates and cfg has no cut vertex
    skipped = edge = 0
    for mutant in label_mutants("skip", 600):
        try:
            third, extra = enhance(mutant)
        except InputError:
            continue
        if extra is not None:
            continue
        assert third is mutant.third
        free_completion(mutant)
        assert cut_vertices(mutant.rot) == []
        _, ks, m = ring_plan(mutant)
        skipped += 1
        edge += max(ks) == m
    assert skipped >= 1000 and edge >= 20, (skipped, edge)
    # k == m: one fan takes all but one ring edge, the other fan the last
    fits = parse_one("config edge35 2\nv 1 3 : 2\nv 2 5 : 1\nend\n")
    assert ring_plan(fits)[1:] == ([4, 2], 4)
    assert enhance(fits) == (fits.third, None)
    # k == m + 1: the fan wraps onto its own first ring vertex
    wraps = parse_one("config edge66 2\nv 1 2 : 2\nv 2 6 : 1\nend\n")
    assert ring_plan(wraps)[1:] == ([5, 1], 4)
    with pytest.raises(InputError, match="edge66\\+ring: vertex 2 repeats"):
        enhance(wraps)


def test_enhancement_is_the_drawn_ring_restricted():
    # the reference draws and validates the ring.  Where it raises,
    # enhance raises the same message.  Where it validates, the cut
    # vertices are the vertices met twice on the outer walk; with more
    # than one, enhance refuses the record.  Otherwise the corner map
    # is the drawn ring's triangles among cfg and extra, the drawing
    # they span is 2-connected, and extra is the lesser ring neighbor
    # of the cut vertex, each of which ties the branches together
    drawings = list(label_mutants("restrict", 300))
    for text in [*_lattice_patches("lattice", 4000), *fuzz_corpus()]:
        try:
            drawings += parse_configurations(text)
        except InputError:
            continue
    seen = collections.Counter()
    for cfg in drawings:
        try:
            l0, ring = free_completion(cfg)
        except InputError as e:
            with pytest.raises(InputError) as again:
                enhance(cfg)
            assert again.value.message == e.message
            seen["raised"] += 1
            continue
        cuts = cut_vertices(cfg.rot) if len(cfg.ids) > 1 else []
        walk = [v for _, v in cfg.outer]
        assert cuts == sorted(v for v in set(walk) if walk.count(v) == 2)
        if len(cuts) > 1:
            with pytest.raises(InputError) as e:
                enhance(cfg)
            assert e.value.message == (
                f"{cfg.name}: {len(cuts)} cut vertices, expected exactly one")
            seen["cuts"] += 1
            continue
        third, extra = enhance(cfg)
        assert third == ring_corners(cfg, extra), cfg.name
        if extra is None:
            assert third is cfg.third and not cuts and len(cfg.ids) > 1
            seen["2-connected"] += 1
            continue
        keep = set(cfg.ids) | {extra}
        assert cut_vertices(restrict_drawing(l0.rot, l0.cyclic, keep)[0]) == []
        if cuts:
            near = [q for q in l0.rot[cuts[0]] if q in ring]
            assert extra == min(near)
            for q in near:
                tied = restrict_drawing(l0.rot, l0.cyclic, set(cfg.ids) | {q})
                assert cut_vertices(tied[0]) == []
            seen["cut"] += 1
        else:
            seen["dot"] += 1
    assert seen["cut"] >= 700 and seen["dot"] >= 500, seen
    assert all(seen[k] >= 50 for k in ("raised", "cuts", "2-connected")), seen


# the six directions of the triangular lattice, clockwise
_STEPS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def _lattice_patches(seed, count):
    """`count` seeded records cut from the triangular lattice: the origin
    and up to nine more points within two steps of it, each added next
    to one already taken.  A point's neighbors in the patch are listed
    clockwise from just after its first missing direction; a point with
    all six is labeled its degree, any other its degree plus one to
    five, most often two, the only label a cut vertex takes."""
    rng = random.Random(seed)
    for t in range(count):
        pts = [(0, 0)]
        for _ in range(rng.randint(0, 9)):
            while True:
                x, y = rng.choice(pts)
                dx, dy = rng.choice(_STEPS)
                p = (x + dx, y + dy)
                if p not in pts and max(map(abs, (*p, sum(p)))) <= 2:
                    break
            pts.append(p)
        ids = {p: v for v, p in enumerate(pts, 1)}
        gamma = {}
        rot = {}
        for (x, y), v in ids.items():
            near = [(x + dx, y + dy) for dx, dy in _STEPS]
            gaps = [s for s, q in enumerate(near) if q not in ids]
            if gaps:
                s = gaps[0] + 1
                near = near[s:] + near[:s]
            rot[v] = [ids[q] for q in near if q in ids]
            gamma[v] = len(rot[v])
            if gaps:
                gamma[v] += rng.choice((1, 2, 2, 2, 2, 3, 5))
        yield record_text(f"lat{t}", gamma, rot)


def _build_outcome(text):
    """`load_database`'s outcome on text: the built names and probe
    sequences, each sequence checked against its enhancement, or the
    error's class, message and line."""
    try:
        db = load_database(text)
    except CartwheelError as e:
        return (type(e).__name__, e.message, e.line)
    for gc in db:
        assert question_problems(gc.question, gc.config,
                                 *enhance(gc.config)) == []
    return [(gc.name, gc.question) for gc in db]


def test_build_messages_on_a_fuzz_corpus_keep_their_digest():
    # every +-1 integer mutant of the fixture database, and seeded
    # structural and label mutants of each of its records, loaded in
    # full against a digest taken from a build that completed and
    # validated every record: skipping a completion must change no
    # message, line or probe
    h = hashlib.sha256()
    kinds = collections.Counter()
    for text in fuzz_corpus():
        out = _build_outcome(text)
        if isinstance(out, tuple):
            kinds.update(k for k in ("not a plane triangulation",
                                     "not a circuit", "splits the boundary")
                         if k in out[1])
        h.update(repr(out).encode())
    assert min(kinds.values()) >= 20 and len(kinds) == 3, kinds
    assert h.hexdigest() == (
        "8375548bb3a818dc996d8c73e7df27f40249c1168d2aabe3c07811296956df23")


def test_build_messages_on_lattice_patches_keep_their_digest():
    # lattice patches reach what mutants of the fixture records rarely
    # do: a cut vertex, more than one, and a ring repeat at a cut
    # vertex.  The digest was taken from a build that drew and
    # validated every ring it read
    h = hashlib.sha256()
    kinds = collections.Counter()
    for text in _lattice_patches("lattice", 4000):
        out = _build_outcome(text)
        h.update(repr(out).encode())
        if isinstance(out, list):
            kinds["enhanced"] += any(p[3] == 0 for p in out[0][1][2:])
            continue
        kinds.update(k for k in ("cut vertices", "not a plane triangulation")
                     if k in out[1])
        if out[1].endswith("repeats a neighbor"):
            cfg = parse_one(text)
            v = int(out[1].split()[-4])
            kinds["repeat at a cut vertex"] += [
                w for _, w in cfg.outer].count(v) == 2
    assert min(kinds.values()) >= 50 and len(kinds) == 4, kinds
    assert h.hexdigest() == (
        "9d50d6d52aedb5531e2b234cc50a98acf56878cd23199617254ac91b1450e6cf")


def test_a_build_validates_each_parsed_record_once(monkeypatch):
    # the fixture database and the lattice patches: a build constructs
    # and validates one drawing per record, the parsed one, and draws
    # nothing else
    made = []
    validated = []
    init = Configuration.__init__
    validate = Configuration.validate

    def counted_init(self, *args):
        init(self, *args)
        made.append(self)

    def counted_validate(self):
        validated.append(self)
        return validate(self)

    monkeypatch.setattr(Configuration, "__init__", counted_init)
    monkeypatch.setattr(Configuration, "validate", counted_validate)
    db = load_database(CONFIGS_DB)
    assert made == validated == [gc.config for gc in db]
    outcomes = collections.Counter()
    for text in _lattice_patches("lattice", 4000):
        made.clear()
        validated.clear()
        try:
            db = load_database(text)
        except InputError:
            db = []
        assert len(made) == 1 and validated == made
        outcomes[len(db)] += 1
    assert min(outcomes[0], outcomes[1]) >= 1000, outcomes


def test_completion_rejects_bad_boundary_split():
    rot = {1: [2, 3, 4, 5], 2: [3, 1], 3: [1, 2], 4: [5, 1], 5: [1, 4]}
    cfg = make_config("fatbow", {1: 7, 2: 5, 3: 5, 4: 5, 5: 5}, rot)
    with pytest.raises(InputError, match="splits the boundary.*labeled 7"):
        enhance(cfg)


def test_completion_rejects_short_ring():
    cfg = parse_one("config edge33 2\nv 1 3 : 2\nv 2 3 : 1\nend\n")
    with pytest.raises(InputError, match="ring of 2 vertices"):
        enhance(cfg)


def test_completion_rejects_triple_boundary_visit():
    rot = {1: [2, 3, 4, 5, 6, 7], 2: [3, 1], 3: [1, 2],
           4: [5, 1], 5: [1, 4], 6: [7, 1], 7: [1, 6]}
    gamma = {1: 9, 2: 5, 3: 5, 4: 5, 5: 5, 6: 5, 7: 5}
    cfg = make_config("triforce", gamma, rot)
    with pytest.raises(InputError, match="touches the infinite region 3"):
        enhance(cfg)


# ------------------------------------------------ enhancement and probes

def test_enhance_keeps_two_connected_drawings():
    for text in (CONFIG_TRI666, CONFIG_DIAMOND):
        cfg = parse_one(text)
        third, extra = enhance(cfg)
        assert third is cfg.third and extra is None


def test_enhance_ties_the_bowtie_with_one_ring_vertex():
    # ring vertex 6 closes one triangle over each outer edge beside the
    # cut vertex 1 whose corners both hold it
    cfg = parse_one(CONFIG_BOWTIE)
    third, extra = enhance(cfg)
    assert extra == 6
    added = {e: w for e, w in third.items() if e not in cfg.third}
    assert added == {(1, 3): 6, (3, 6): 1, (6, 1): 3,
                     (4, 1): 6, (1, 6): 4, (6, 4): 1}
    assert third == ring_corners(cfg, extra)


def test_enhance_gives_the_dot_a_companion():
    cfg = parse_one("config dot5 1\nv 1 5 :\nend\n")
    assert enhance(cfg) == ({}, 2)
    assert ring_corners(cfg, 2) == {}


def test_enhance_rejects_more_than_one_cut_vertex():
    # three triangles in a chain, joined at vertices 3 and 5
    rot = {1: [2, 3], 2: [3, 1], 3: [1, 2, 4, 5], 4: [5, 3],
           5: [3, 4, 6, 7], 6: [7, 5], 7: [5, 6]}
    gamma = {v: 6 if v in (3, 5) else 5 for v in rot}
    cfg = make_config("chain", gamma, rot)
    assert ring_plan(cfg)[2] == 10
    with pytest.raises(InputError,
                       match="2 cut vertices, expected exactly one"):
        enhance(cfg)


def test_question_golden_triangle():
    cfg = parse_one(CONFIG_TRI666)
    q = build_good_configuration(cfg).question
    assert q == ((None, None, 1, 6), (None, None, 2, 6), (1, 2, 3, 6))


def test_question_golden_dot():
    cfg = parse_one("config dot5 1\nv 1 5 :\nend\n")
    q = build_good_configuration(cfg).question
    assert q == ((None, None, 1, 5), (None, None, 2, 0))


def test_question_golden_bowtie():
    cfg = parse_one(CONFIG_BOWTIE)
    q = build_good_configuration(cfg).question
    assert q == ((None, None, 1, 6), (None, None, 2, 5), (1, 2, 3, 5),
                 (1, 3, 6, 0), (1, 6, 4, 5), (1, 4, 5, 5))


def test_question_golden_diamond():
    cfg = parse_one(CONFIG_DIAMOND)
    q = build_good_configuration(cfg).question
    assert q == ((None, None, 1, 6), (None, None, 3, 6), (3, 1, 2, 5),
                 (1, 3, 4, 5))


def test_reflection_swaps_corners_and_inverts():
    cfg = parse_one(CONFIG_BOWTIE)
    q = build_good_configuration(cfg).question
    r = reflect_question(q)
    assert r[:2] == q[:2]
    assert r[2] == (2, 1, 3, 5)
    assert reflect_question(r) == q


def test_database_questions_pass_their_checks():
    for gc in load_database(CONFIGS_DB):
        probs = question_problems(gc.question, gc.config,
                                  *enhance(gc.config))
        assert probs == []
        assert gc.reflection == reflect_question(gc.question)


def test_question_problems_detections():
    cfg = parse_one(CONFIG_DIAMOND)
    gc = build_good_configuration(cfg)
    q = gc.question
    third, extra = enhance(cfg)

    broken = q[:2] + ((1, 3, 2, 5),) + q[3:]
    assert any("not a clockwise corner" in p
               for p in question_problems(broken, cfg, third, extra))

    wrong_label = q[:2] + ((3, 1, 2, 4),) + q[3:]
    assert any("carries label 4, vertex has 5" in p
               for p in question_problems(wrong_label, cfg, third, extra))

    short = q[:3]
    assert any("do not cover" in p
               for p in question_problems(short, cfg, third, extra))

    repeated = q + ((1, 3, 4, 5),)
    assert any("repeated probe vertex" in p
               for p in question_problems(repeated, cfg, third, extra))

    floating = q[:2] + ((4, 1, 2, 5),) + q[3:]
    assert any("leans on unplaced" in p
               for p in question_problems(floating, cfg, third, extra))

    bad_seeds = ((None, None, 2, 5), (None, None, 4, 5),
                 (3, 1, 2, 5), (1, 3, 4, 5))
    assert any("seed pair not adjacent" in p
               for p in question_problems(bad_seeds, cfg, third, extra))


def test_isolated_drawing_seeds_on_its_ring_neighbor():
    cfg = parse_one("config dot5 1\nv 1 5 :\nend\n")
    gc = build_good_configuration(cfg)
    tampered = (gc.question[0], (None, None, 2, 5))
    probs = question_problems(tampered, cfg, *enhance(cfg))
    assert any("must seed on its ring neighbor" in p for p in probs)


# -------------------------------------------------- radius and database

def test_centers_prefer_nothing_on_a_long_path():
    cfg = parse_one(CONFIG_LONG_PATH)
    assert centers(cfg) == []


def test_good_configuration_requires_small_radius():
    cfg = parse_one(CONFIG_LONG_PATH)
    with pytest.raises(InputError, match="radius exceeds two"):
        build_good_configuration(cfg)


def test_probe_sequence_names_the_radius_defect_alike():
    # make_question finds no center before it reads the enhancement
    cfg = parse_one(CONFIG_LONG_PATH)
    with pytest.raises(InputError, match="^longpath: radius exceeds two$"):
        make_question(cfg, cfg.third, None, centers(cfg))


def test_load_database_builds_everything():
    db = load_database(CONFIGS_DB)
    assert [gc.name for gc in db] == [
        "edge66", "edge56", "dot5", "edge55", "bowtie", "tri666", "diamond"]
    for gc in db:
        assert set(gc.config.ids) <= set(free_completion(gc.config)[0].ids)
        assert gc.question[0][2] in gc.config.ids
