"""Input files through the CLI: where lines end, what an integer field
is, and a seeded token-level fuzz of all three formats that must keep
to the exit-code contract."""

import random

import pytest

from _fixtures import (
    CONFIGS_DB,
    CONFIGS_EMPTY,
    CONFIGS_SMALL,
    OUTLETS_DEMO_7,
    PRESENT_REDUCE_7,
    PRESENT_REFLECT_7,
    PRESENT_RULES_7,
    PRESENT_SYMMETRY_7,
    PRESENT_ZERO_7,
    RULES_DEMO,
    RULES_EMPTY,
    RULES_TINY,
    run_cli,
    write,
)


def verify(tmp_path, rules=RULES_EMPTY, script=PRESENT_ZERO_7,
           configs=CONFIGS_EMPTY):
    return run_cli(["verify", "-d", "7",
                    "-r", write(tmp_path, "in.rules", rules),
                    "-p", write(tmp_path, "in.pres", script),
                    "-c", write(tmp_path, "in.confs", configs)])


# A comment holding a character that str.splitlines() also breaks at
# (form feed, U+2028) stays one line: its tail is no data, and the lines
# after it keep the numbers an editor shows.
@pytest.mark.parametrize("inputs, code, said", [
    (dict(script="degree 7\n# note \x0c here\n0 C 15 -6\n"), 1,
     "line 3: condition (15, -6) is not compatible with its branch"),
    (dict(rules="# tiny rule \x0c set\n" + RULES_TINY, script=PRESENT_RULES_7,
          configs=CONFIGS_SMALL), 0, ""),
    (dict(configs="# small \u2028 note\n" + CONFIGS_SMALL), 0, ""),
], ids=["script", "rules", "configs"])
def test_lines_end_at_newline_only(tmp_path, inputs, code, said):
    got, out, err = verify(tmp_path, **inputs)
    assert got == code, err
    assert said in err
    if code == 0:
        assert out.startswith("verified: degree 7")


# int() also takes '+5', '0_0' and non-ASCII digits; a field is an
# optional '-' and ASCII digits, anything else is bad input
@pytest.mark.parametrize("inputs, where", [
    (dict(script=PRESENT_ZERO_7.replace(" 7 7 0", " 7 7 0_0")),
     "in.pres:2: non-integer field"),
    (dict(script=PRESENT_ZERO_7.replace("degree 7", "degree \u0667")),
     "in.pres:1: degree must be an integer"),
    (dict(rules="rule +6 6 5 12\n"), "in.rules:1: non-integer field in rule"),
    (dict(configs="config dot5 1\nv 1 5 : \uff12\nend\n"),
     "in.confs:2: non-integer field in vertex line"),
], ids=["script-underscore", "script-arabic-digit", "rules-plus",
        "configs-fullwidth-digit"])
def test_integer_fields_are_ascii_digits(tmp_path, inputs, where):
    code, _, err = verify(tmp_path, **inputs)
    assert code == 2
    assert err.endswith(f"{where}\n")


def test_golden_integer_fields_are_ascii_digits(tmp_path):
    golden = write(tmp_path, "demo7.outlets",
                   OUTLETS_DEMO_7.replace("outlet 1 T 1", "outlet 1 T +1"))
    code, _, err = run_cli(["derive-outlets", "-d", "7", "-r",
                            write(tmp_path, "demo.rules", RULES_DEMO),
                            "--golden", golden])
    assert code == 2
    assert err == f"error: {golden}:1: non-integer field in outlet line\n"


# (rules, script, configs) that verify, or fail on a step, as they stand
FUZZ_BASES = (
    (RULES_DEMO, PRESENT_ZERO_7, CONFIGS_DB),
    (RULES_TINY, PRESENT_RULES_7, CONFIGS_SMALL),
    (RULES_EMPTY, PRESENT_REDUCE_7, CONFIGS_SMALL),
    (RULES_EMPTY, PRESENT_SYMMETRY_7, CONFIGS_EMPTY),
    (RULES_EMPTY, PRESENT_REFLECT_7, CONFIGS_EMPTY),
)

FUZZ_TOKENS = ("0", "1", "-1", "2", "3", "5", "6", "7", "8", "9", "11",
               "12", "13", "15", "36", "-6", "-7", "99", "C", "H", "R", "S",
               "rule", "outlet", "config", "v", ":", "end", "degree", "#",
               "x", "0_0", "+5", "\u0667", "\x0c", "\u2028")


def mutate(text, rng):
    """One token replaced, deleted or inserted, or one line doubled."""
    lines = text.split("\n")
    li = rng.randrange(len(lines))
    kind = rng.choice(("replace", "delete", "insert", "duplicate"))
    if kind == "duplicate":
        lines.insert(li, lines[li])
        return "\n".join(lines)
    tokens = lines[li].split(" ")
    ti = rng.randrange(len(tokens))
    token = rng.choice(FUZZ_TOKENS + tuple(text.split()))
    if kind == "replace":
        tokens[ti] = token
    elif kind == "delete":
        del tokens[ti]
    else:
        tokens.insert(ti, token)
    lines[li] = " ".join(tokens)
    return "\n".join(lines)


def test_token_fuzz_keeps_the_exit_code_contract(tmp_path):
    rng = random.Random(20140126)
    broken = []
    for t in range(200):
        files = list(rng.choice(FUZZ_BASES))
        which = rng.randrange(3)
        files[which] = mutate(files[which], rng)
        paths = [write(tmp_path, f"{t}.{ext}", text)
                 for ext, text in zip(("rules", "pres", "confs"), files)]
        flags = [x for pair in zip(("-r", "-p", "-c"), paths) for x in pair]
        for argv in (["verify", "-d", "7", *flags], ["lint", *flags]):
            code, _, err = run_cli(argv)
            if code not in (0, 1, 2) or "Traceback" in err:
                broken.append((argv[0], files[which], code, err))
    assert broken == []
