"""Input texts and helpers shared across the test modules."""

import contextlib
import io
import random

from cartwheel_discharge import cli
from cartwheel_discharge.configurations import (Configuration,
                                                parse_configurations)
from cartwheel_discharge.errors import InputError
from cartwheel_discharge.oracles import free_completion

RULES_EMPTY = "# no discharging rules\n"

CONFIGS_EMPTY = "# empty database\n"

# one rule whose only degree-7 outlet is +1 at a spoke pinned to 6
RULES_TINY = "rule 6 6 5 12\n"

# four rules exercising spoke, hat, and fan positions in both kinds
RULES_DEMO = """\
rule 7 12 5 8
rule 8 12 5 12 2 6 6 4 5 8
rule 6 6 7 12 2 5 8 4 6 12 12 5 6
rule 5 12 5 12 2 6 6 4 5 12 8 5 7
"""

# degree-7 outlet table of RULES_DEMO, worked out by hand from the
# cartwheel rotation system (see the position goldens in test_rules)
OUTLETS_DEMO_7 = """\
outlet 1 T 1 1 7 12
outlet 1 T' -1 1 5 8
outlet 2 T 1 1 8 12 2 6 6 8 5 8
outlet 3 T 1 1 6 6 2 5 8 8 6 12 15 5 6
outlet 4 T 1 2 6 6 16 5 7
outlet 4 T' -1 7 6 6 13 5 7
"""

ZERO_TRIPLES_7 = "1 1 0 2 2 0 3 3 0 4 4 0 5 5 0 6 6 0 7 7 0"

PRESENT_ZERO_7 = f"degree 7\n0 H {ZERO_TRIPLES_7}\n"

PRESENT_SYMMETRY_7 = f"""\
degree 7
0 C 2 -6
1 H {ZERO_TRIPLES_7}
0 C 1 -6
1 S 6 0 0 2
0 H {ZERO_TRIPLES_7}
"""

PRESENT_REFLECT_7 = f"""\
degree 7
0 C 1 -6
1 H {ZERO_TRIPLES_7}
0 C 7 -6
1 S 0 1 0 2
0 H {ZERO_TRIPLES_7}
"""

PRESENT_REDUCE_7 = f"""\
degree 7
0 C 1 -6
1 C 2 -6
2 R
1 H {ZERO_TRIPLES_7}
0 H {ZERO_TRIPLES_7}
"""

# pooled entry from line 3 sits at level 1 and is evicted by the
# disposition on line 5, so the appeal on line 6 dangles
PRESENT_EVICTED_7 = f"""\
degree 7
0 C 1 -6
1 C 2 -6
2 H {ZERO_TRIPLES_7}
1 H {ZERO_TRIPLES_7}
0 S 0 0 1 3
"""

# nonzero bounds certified through the full recursion: every wedged
# pair of adjacent 6-pins carries edge66 and reduces
PRESENT_RULES_7 = "degree 7\n0 H 1 2 1 2 3 1 3 4 1 4 5 1 5 6 1 6 7 1 7 1 1\n"

# a spoke of degree 5 or 6 sends the hub 1, so every triple below
# overflows on spokes wedged into 5..6 and escalates an axle with
# slack, whose decrement tree CONFIGS_SMALL closes.  The trees of the
# R step and of the escalations ask for 54 skeletons of 34 distinct
# upper-bound vectors, and each doubled triple escalates its axle twice.
RULES_SLACK = "rule 5 6 5 12\n"
PAIRED_TRIPLES_7 = "1 2 1 1 2 1 3 4 1 3 4 1 5 6 1 5 6 1 7 7 1"
PRESENT_ESCALATE_7 = f"""\
degree 7
0 C 1 -6
1 C 2 -6
2 R
1 H 1 2 1 2 3 1 3 4 1 4 5 1 5 6 1 6 7 1 7 1 1
0 H {PAIRED_TRIPLES_7}
"""

CONFIGS_SMALL = """\
config edge66 2
v 1 6 : 2
v 2 6 : 1
end
config edge56 2
v 1 5 : 2
v 2 6 : 1
end
config dot5 1
v 1 5 :
end
"""

CONFIG_EDGE55 = """\
config edge55 2
v 1 5 : 2
v 2 5 : 1
end
"""

CONFIG_BOWTIE = """\
config bowtie 5
v 1 6 : 2 3 4 5
v 2 5 : 3 1
v 3 5 : 1 2
v 4 5 : 5 1
v 5 5 : 1 4
end
"""

CONFIG_TRI666 = """\
config tri666 3
v 1 6 : 2 3
v 2 6 : 3 1
v 3 6 : 1 2
end
"""

CONFIG_DIAMOND = """\
config diamond 4
v 1 6 : 2 3 4
v 2 5 : 3 1
v 3 6 : 4 1 2
v 4 5 : 1 3
end
"""

# a path needs three steps end to end, so no vertex is a center
CONFIG_LONG_PATH = """\
config longpath 6
v 1 2 : 2
v 2 3 : 1 3
v 3 3 : 2 4
v 4 3 : 3 5
v 5 3 : 4 6
v 6 2 : 5
end
"""

CONFIGS_DB = (CONFIGS_SMALL + CONFIG_EDGE55 + CONFIG_BOWTIE + CONFIG_TRI666
              + CONFIG_DIAMOND)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def make_config(name, gamma, rot, validate=True):
    """Configuration built straight from tables (labels above 11 are
    fine here, unlike in the text format)."""
    cyclic = {v: gamma[v] == len(rot[v]) for v in rot}
    cfg = Configuration(name, gamma, rot, cyclic)
    if validate:
        cfg.validate()
    return cfg


def int_mutants(text):
    """Every integer field of `text` perturbed by +-1, one at a time.
    Yields (lineno, field, delta, mutated_text)."""
    lines = text.splitlines()
    for li, line in enumerate(lines):
        parts = line.split()
        for pi, tok in enumerate(parts):
            try:
                val = int(tok)
            except ValueError:
                continue
            for delta in (1, -1):
                mutated = parts[:]
                mutated[pi] = str(val + delta)
                new_lines = lines[:]
                new_lines[li] = " ".join(mutated)
                yield li + 1, pi, delta, "\n".join(new_lines) + "\n"


def question_problems(question, cfg, third, extra):
    """Static checks on a probe sequence built over the enhancement
    (third, extra) of cfg, a corner map and its added vertex; empty
    list when sound."""
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
        if third.get((u, v)) != z:
            probs.append(f"probe {t} is not a clockwise corner")
    return probs

def ring_corners(cfg, extra):
    """The corners of the drawn ring's triangles among cfg's vertices
    and extra: the reference for the corner map `enhance` gives."""
    keep = set(cfg.ids) | {extra}
    return {(u, v): w for (u, v), w in free_completion(cfg)[0].third.items()
            if u in keep and v in keep and w in keep}


def seeded_defect(cfg, rng):
    """cfg's name and tables with one seeded defect: two neighbors
    swapped, one dropped, a list reversed or rotated, cyclic flipped, a
    label changed, or an edge deleted from both sides."""
    rot = {v: list(ws) for v, ws in cfg.rot.items()}
    cyclic = dict(cfg.cyclic)
    gamma = dict(cfg.gamma)
    v = rng.choice(cfg.ids)
    lst = rot[v]
    kind = rng.randrange(7) if len(lst) > 1 else rng.randrange(4, 6)
    if kind == 0:
        i, j = rng.sample(range(len(lst)), 2)
        lst[i], lst[j] = lst[j], lst[i]
    elif kind == 1:
        del lst[rng.randrange(len(lst))]
    elif kind == 2:
        lst.reverse()
    elif kind == 3:
        t = rng.randrange(1, len(lst))
        rot[v] = lst[t:] + lst[:t]
    elif kind == 4:
        cyclic[v] = not cyclic[v]
    elif kind == 5:
        gamma[v] = rng.choice([None, *range(1, 12)])
    else:
        u = rng.choice(lst)
        lst.remove(u)
        rot[u].remove(v)
    return cfg.name, gamma, rot, cyclic


def label_mutants(seed, count):
    """`count` seeded label and rotation mutants of each fixture drawing,
    those that still validate: up to three labels redrawn, and two
    neighbors of one vertex swapped half the time."""
    rng = random.Random(seed)
    for cfg in parse_configurations(CONFIGS_DB):
        for _ in range(count):
            gamma = dict(cfg.gamma)
            rot = {v: list(ws) for v, ws in cfg.rot.items()}
            reset = rng.randint(1, min(3, len(cfg.ids)))
            for v in rng.sample(cfg.ids, reset):
                gamma[v] = rng.randint(1, 11)
            lst = rot[rng.choice(cfg.ids)]
            if len(lst) > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(len(lst)), 2)
                lst[i], lst[j] = lst[j], lst[i]
            try:
                yield make_config(cfg.name, gamma, rot)
            except InputError:
                continue


def record_text(name, gamma, rot):
    """One configuration record in the database's text form."""
    lines = [f"config {name} {len(rot)}"]
    lines += [f"v {v} {gamma[v]} : {' '.join(map(str, ws))}"
              for v, ws in rot.items()]
    return "\n".join(lines + ["end", ""])


def fuzz_corpus():
    """Database texts of a fixed fuzz corpus: every +-1 integer mutant
    of the fixture database, 150 seeded defects of each of its records,
    and 300 seeded label mutants of each.  Many fail to build."""
    corpus = [text for *_, text in int_mutants(CONFIGS_DB)]
    rng = random.Random("build")
    for cfg in parse_configurations(CONFIGS_DB):
        for _ in range(150):
            name, gamma, rot, _ = seeded_defect(cfg, rng)
            corpus.append(record_text(name, gamma, rot))
    corpus += [record_text(m.name, m.gamma, m.rot)
               for m in label_mutants("build", 300)]
    return corpus
