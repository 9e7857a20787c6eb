"""Proof-script parsing, static structure, and the branch runtime."""

import pytest

from _fixtures import (
    CONFIGS_SMALL,
    PAIRED_TRIPLES_7,
    PRESENT_ESCALATE_7,
    PRESENT_EVICTED_7,
    PRESENT_REDUCE_7,
    PRESENT_REFLECT_7,
    PRESENT_RULES_7,
    PRESENT_SYMMETRY_7,
    PRESENT_ZERO_7,
    RULES_SLACK,
    RULES_TINY,
    ZERO_TRIPLES_7,
)
from cartwheel_discharge import hubcaps, presentation, reducibility
from cartwheel_discharge.axles import trivial_axle
from cartwheel_discharge.configurations import load_database
from cartwheel_discharge.errors import InputError, VerificationFailure
from cartwheel_discharge.presentation import (
    parse_presentation,
    run_presentation,
    walk_levels,
)
from cartwheel_discharge.rules import derive_outlets, parse_rules


def parse(text):
    return parse_presentation(text)


def run(text, table=(), db=(), trace=None):
    degree, lines = parse_presentation(text)
    return run_presentation(degree, lines, list(table), list(db), trace)


@pytest.fixture(scope="module")
def db():
    return load_database(CONFIGS_SMALL)


# -------------------------------------------------------------- parsing

def test_parse_zero_script():
    degree, lines = parse(PRESENT_ZERO_7)
    assert degree == 7
    assert len(lines) == 1
    ln = lines[0]
    assert (ln.no, ln.level, ln.kind) == (2, 0, "H")
    assert ln.payload[0] == (1, 1, 0)
    assert len(ln.payload) == 7


def test_parse_payload_shapes():
    _, lines = parse(PRESENT_SYMMETRY_7)
    assert lines[0].payload == (2, -6)
    assert lines[3].payload == (6, 0, 0, 2)
    assert lines[2].kind == "C" and lines[2].no == 4


def test_parse_skips_comments_and_blanks():
    degree, lines = parse("# intro\n\ndegree 7  # hub\n\n0 R\n")
    assert degree == 7
    assert [(ln.no, ln.kind) for ln in lines] == [(5, "R")]


def test_parse_ends_lines_at_a_bare_carriage_return():
    degree, lines = parse("degree 7\r0 H 1 1 0 2 2 0 3 3 0 4 4 0 5 5 0 "
                          "6 6 0 7 7 0\r")
    assert degree == 7
    assert [(ln.no, ln.kind) for ln in lines] == [(2, "H")]


def test_errors_without_a_path_name_their_line():
    with pytest.raises(InputError) as e:
        parse("degree 7\n0 C 1\n")
    assert str(e.value) == "line 2: condition takes exactly 'n m'"


@pytest.mark.parametrize("text,msg,line", [
    ("0 H 1 1 0\n", "expected 'degree <d>' first", 1),
    ("degree x\n0 R\n", "degree must be an integer", 1),
    ("degree 12\n0 R\n", "degree 12 out of range 5..11", 1),
    ("degree 7\nx H 1 1 0\n", "line must start with its level", 2),
    ("degree 7\n-1 H 1 1 0\n", "negative level", 2),
    ("degree 7\n0\n", "missing step tag", 2),
    ("degree 7\n0 C 1\n", "condition takes exactly 'n m'", 2),
    ("degree 7\n0 C x -6\n", "non-integer field", 2),
    ("degree 7\n0 C 36 -6\n", "position 36 out of range 1..35", 2),
    ("degree 7\n0 C 0 -6\n", "position 0 out of range", 2),
    ("degree 7\n0 C 1 5\n", "condition value 5 not allowed", 2),
    ("degree 7\n0 R now\n", "reducibility step takes no arguments", 2),
    ("degree 7\n0 H\n", r"bound step takes \(x y v\) triples", 2),
    ("degree 7\n0 H 1 1\n", r"bound step takes \(x y v\) triples", 2),
    ("degree 7\n0 S 1 0 0\n", "symmetry step takes 'k eps l m'", 2),
    ("degree 7\n0 S 7 0 0 2\n", "rotation 7 out of range 0..6", 2),
    ("degree 7\n0 S 0 2 0 2\n", "reflection flag must be 0 or 1", 2),
    ("degree 7\n0 S 0 0 -1 2\n", "negative referenced level", 2),
    ("degree 7\n0 S 0 0 0 1\n", "referenced line must follow the header", 2),
    ("degree 7\n0 X\n", "unknown step tag 'X'", 2),
    ("", "empty proof script", 1),
    ("# all comments\n", "empty proof script", 1),
    ("degree 7\n", "no steps after the degree header", 1),
    ("# c\n\ndegree 7\n", "no steps after the degree header", 3),
])
def test_parse_rejections(text, msg, line):
    with pytest.raises(InputError, match=msg) as e:
        parse(text)
    assert e.value.line == line


# ------------------------------------------------------ static structure

def test_structure_accepts_the_fixtures():
    for text in (PRESENT_ZERO_7, PRESENT_SYMMETRY_7, PRESENT_REFLECT_7,
                 PRESENT_REDUCE_7, PRESENT_EVICTED_7):
        _, lines = parse(text)
        assert [ln for ln, _, _ in walk_levels(lines)] == lines


def test_walk_pools_closed_sides_from_the_levels():
    # the pool and the open C lines at each step of PRESENT_EVICTED_7:
    # line 4 closes the side of the split on line 3, line 5 the side of
    # the split on line 2, which drops line 3's side with it
    _, lines = parse(PRESENT_EVICTED_7)
    assert [(ln.no, list(pool), list(opened))
            for ln, pool, opened in walk_levels(lines)] == [
        (2, [], []),
        (3, [], [2]),
        (4, [], [2, 3]),
        (5, [(1, 3)], [2]),
        (6, [(0, 2)], []),
    ]


def level_break(text):
    _, lines = parse(text)
    with pytest.raises(InputError) as e:
        for _ in walk_levels(lines):
            pass
    return e.value.line, e.value.message


def test_structure_flags_a_level_skip():
    assert level_break(f"degree 7\n0 C 1 -6\n2 H {ZERO_TRIPLES_7}\n") == (
        3, "level 2 where 1 is expected")


def test_structure_flags_steps_after_closing():
    assert level_break(f"degree 7\n0 R\n0 H {ZERO_TRIPLES_7}\n") == (
        3, "step after the proof already closed")


def test_structure_flags_open_branches():
    assert level_break(f"degree 7\n0 C 1 -6\n1 H {ZERO_TRIPLES_7}\n") == (
        3, "proof ends with branches still open")


# --------------------------------------------------------------- running

def test_run_zero_script_closes():
    report = run(PRESENT_ZERO_7)
    assert report.degree == 7
    assert report.steps == 1
    assert report.branches == 0
    assert report.dispositions == {"H": 1}


def test_run_symmetry_fixture():
    report = run(PRESENT_SYMMETRY_7)
    assert report.steps == 5
    assert report.branches == 2
    assert report.dispositions == {"H": 2, "S": 1}
    assert report.pool_peak == 2


def test_run_reflection_fixture():
    report = run(PRESENT_REFLECT_7)
    assert report.dispositions == {"H": 2, "S": 1}


def test_run_reduction_fixture(db):
    trace = []
    report = run(PRESENT_REDUCE_7, db=db, trace=trace)
    assert report.dispositions == {"R": 1, "H": 2}
    assert sum(1 for t in trace if t.startswith("reduce ")) == 5


def test_run_rules_fixture(db):
    table = derive_outlets(parse_rules(RULES_TINY), 7)
    assert len(table) == 1
    report = run(PRESENT_RULES_7, table=table, db=db)
    assert report.dispositions == {"H": 1}


def test_run_builds_each_skeleton_and_verdict_once(db, monkeypatch):
    built = []
    decided = []
    asked = []
    skeleton_of = reducibility.skeleton_of
    reducible = presentation.reducible
    make_reducer = presentation._make_reducer

    def counting_skeleton_of(a, *args):
        built.append((a.d, a.hi))
        return skeleton_of(a, *args)

    pieces = []
    for name in ("_spoke_piece", "_hat_piece"):
        def counting_piece(*key, build=getattr(reducibility, name)):
            pieces.append(key)
            return build(*key)
        monkeypatch.setattr(reducibility, name, counting_piece)

    def counting_reducible(a, *args, **kw):
        decided.append(a)
        return reducible(a, *args, **kw)

    def counting_make_reducer(*args):
        reducer = make_reducer(*args)

        def escalate(a):
            asked.append(a)
            return reducer(a)
        return escalate

    monkeypatch.setattr(reducibility, "skeleton_of", counting_skeleton_of)
    monkeypatch.setattr(presentation, "reducible", counting_reducible)
    monkeypatch.setattr(presentation, "_make_reducer", counting_make_reducer)
    table = derive_outlets(parse_rules(RULES_SLACK), 7)
    report = run(PRESENT_ESCALATE_7, table=table, db=db)
    assert report.dispositions == {"R": 1, "H": 2}
    # one build per distinct (d, hi) the R step and the escalations ask
    # for, 34 in all (54 asks)
    assert len(built) == len(set(built)) == 34
    # and one build per distinct spoke and hat piece, 74 in all (the
    # 34 skeletons are made of 476)
    assert len(pieces) == len(set(pieces)) == 74
    # the R step and each distinct escalated axle go to reducible once;
    # the doubled triples escalate some axles twice
    assert len(decided) == len(set(decided)) == 1 + len(set(asked))
    assert len(asked) > len(set(asked))


@pytest.mark.parametrize("text, line", [
    (PRESENT_ESCALATE_7, 4),
    (f"degree 7\n0 H {PAIRED_TRIPLES_7}\n", 2),
], ids=["r-step", "escalation"])
def test_no_verdict_outlives_its_run(db, text, line):
    # both runs in one process: the first closes every branch, the
    # second, without edge56 and dot5, must fail where it would alone
    table = derive_outlets(parse_rules(RULES_SLACK), 7)
    run(text, table=table, db=db)
    with pytest.raises(VerificationFailure) as e:
        run(text, table=table, db=db[:1])
    assert e.value.line == line


def _counting_contexts(monkeypatch):
    """Record each bound context hubcaps builds, as ((x, y), context)."""
    built = []
    build = hubcaps.build_bound_context

    def counting_build(table, x, y, *args, **kw):
        ctx = build(table, x, y, *args, **kw)
        built.append(((x, y), ctx))
        return ctx
    monkeypatch.setattr(hubcaps, "build_bound_context", counting_build)
    return built


def test_run_builds_each_bound_context_once(db, monkeypatch):
    # both H steps name (1, 2), (3, 4) and (5, 6); the second names
    # each twice.  Every run builds its own contexts, once per pair.
    built = _counting_contexts(monkeypatch)
    table = derive_outlets(parse_rules(RULES_SLACK), 7)
    pairs = {(i, i % 7 + 1) for i in range(1, 8)} | {(7, 7)}
    for _ in range(2):
        del built[:]
        run(PRESENT_ESCALATE_7, table=table, db=db)
        assert sorted(p for p, _ in built) == sorted(pairs)


def test_no_bound_context_outlives_its_run(db, monkeypatch):
    # with the empty table every bound holds; with RULES_SLACK's and
    # no edge56 or dot5 the first triple fails.  A context kept from
    # another run would carry the other table.
    built = _counting_contexts(monkeypatch)
    slack = derive_outlets(parse_rules(RULES_SLACK), 7)
    text = f"degree 7\n0 H {PAIRED_TRIPLES_7}\n"
    for table, fails in ((), False), (slack, True), ((), False):
        del built[:]
        if fails:
            with pytest.raises(VerificationFailure) as e:
                run(text, table=table, db=db[:1])
            assert e.value.line == 2
        else:
            assert run(text, table=table, db=db[:1]).dispositions == {"H": 1}
        assert built
        for (x, y), ctx in built:
            spots = 1 if x == y else 2
            assert len(ctx.positioned) == spots * len(table)


def test_run_flags_level_mismatch():
    with pytest.raises(InputError, match="level 1 where 0 is expected") as e:
        run(f"degree 7\n1 H {ZERO_TRIPLES_7}\n")
    assert e.value.line == 2


def test_run_flags_steps_after_closing():
    with pytest.raises(InputError, match="already closed") as e:
        run(f"degree 7\n0 H {ZERO_TRIPLES_7}\n0 H {ZERO_TRIPLES_7}\n")
    assert e.value.line == 3


def test_run_flags_open_branches():
    with pytest.raises(InputError, match="branches still open") as e:
        run(f"degree 7\n0 C 1 -6\n1 H {ZERO_TRIPLES_7}\n")
    assert e.value.line == 3


def test_run_rejects_incompatible_condition():
    text = f"degree 7\n0 C 1 -6\n1 C 1 7\n2 R\n"
    with pytest.raises(VerificationFailure, match="not compatible") as e:
        run(text)
    assert e.value.line == 3


def test_run_rejects_fan_condition_on_open_spoke():
    with pytest.raises(VerificationFailure, match="not compatible") as e:
        run("degree 7\n0 C 15 6\n1 R\n0 R\n")
    assert e.value.line == 2


def test_symmetry_appeal_failure_modes():
    base = parse(PRESENT_SYMMETRY_7)[1]
    appeal = "1 S 6 0 0 2"
    for broken in ("1 S 6 0 0 3",   # no pooled entry on that line
                   "1 S 6 0 1 2",   # pooled entry sits at level 0
                   "1 S 5 0 0 2",   # wrong rotation misses the pin
                   "1 S 6 1 0 2"):  # spurious reflection
        text = PRESENT_SYMMETRY_7.replace(appeal, broken)
        assert text != PRESENT_SYMMETRY_7
        with pytest.raises(VerificationFailure, match="symmetry appeal") as e:
            run(text)
        assert e.value.line == 5
    assert base[3].payload == (6, 0, 0, 2)


def test_symmetry_appeal_to_evicted_entry_fails():
    with pytest.raises(VerificationFailure, match="symmetry appeal") as e:
        run(PRESENT_EVICTED_7)
    assert e.value.line == 6


def test_pool_skips_branches_with_fan_bounds():
    text = (f"degree 7\n0 C 1 7\n1 C 1 -7\n2 C 15 6\n"
            f"3 H {ZERO_TRIPLES_7}\n2 H {ZERO_TRIPLES_7}\n"
            f"1 H {ZERO_TRIPLES_7}\n0 H {ZERO_TRIPLES_7}\n")
    report = run(text)
    assert report.branches == 3
    assert report.pool_peak == 2
    assert report.dispositions == {"H": 4}


def test_trace_records_every_step():
    trace = []
    run(PRESENT_SYMMETRY_7, trace=trace)
    t = trivial_axle(7)
    steps = [x for x in trace if x.startswith("line ")]
    assert steps[0] == f"line 2 level 0 C 2 -6 axle={t.digest()} verdict=split"
    assert steps[1].startswith("line 3 level 1 H axle=")
    assert steps[1].endswith("verdict=ok")
    assert [s.split()[1] for s in steps] == ["2", "3", "4", "5", "6"]
    assert any(x.startswith("bound p=") for x in trace)
