"""Workload pools and per-seed selections.

Each workload owns a pool of scripts synthesized from a fixed pool seed.
A pooled script is accepted on sizes the generator controls: its number
of steps and its mix of step kinds.  Every pooled script was run once
through the engine: passing scripts are kept only when they pass,
mutants only when they fail at the mutated line.  Nothing else the
engine does (how many calls it makes, how long it takes) decides what
enters a pool, so an engine that keeps its verdicts yields the same
pools byte for byte.

A run's ``--seed`` picks all but one of the workload's pooled scripts,
and their order (``run.select``).  The files a run hands to the verifier are
written from that selection; nothing else reaches the program.
"""

from __future__ import annotations

import hashlib
import json
import random

import synth

# BENCHMARK.json gives the reason for each workload
NAMES = ("deep-d7", "hubcap-wide", "reduce-bigdb", "fail-first")

# Core reducers of the degree-7 databases: two small vertices side by
# side.  They keep forced overloads reducible so scripts close.
CORE = (synth.config_text("k55", "edge", {1: 5, 2: 5})
        + synth.config_text("k56", "edge", {1: 5, 2: 6}))

# configurations of a reduce-bigdb database that rarely match, listed
# before the core reducers
BIGDB_MISSES = 300

# pool size and the accepted number of steps
SPEC = {
    "deep-d7": dict(pool=12, steps=(35, 90)),
    "hubcap-wide": dict(pool=8, steps=(35, 105)),
    "reduce-bigdb": dict(pool=9, steps=(35, 160)),
    "fail-first": dict(pool=20),
}

POOL_SEED = 20140125
ATTEMPTS = 400

# the fields of a pooled script that reach the verifier or state its
# answer; the pool digests cover these and nothing else
DIGESTED = ("degree", "rules", "configs", "script", "code", "line")


def _deep_unit(rng):
    rules = synth.random_rules(rng, 7, 20, 0.55 + 0.15 * rng.random())
    configs = CORE + "".join(synth.random_configs(
        rng, 6, ["edge", "tri", "diamond"], [5, 6, 7], "c"))
    return 7, rules, configs, dict(max_steps=400)


def _hubcap_unit(rng, d):
    return d, synth.hubcap_rules(rng, d, 14), "", dict(max_steps=160,
                                                       use_s=False)


def _bigdb_unit(rng):
    rules = synth.random_rules(rng, 7, 20, 0.55 + 0.15 * rng.random())
    misses = synth.random_configs(rng, BIGDB_MISSES,
                                  ["tri", "diamond", "fan3", "path"],
                                  [5, 6, 7, 8], "m")
    return 7, rules, "".join(misses) + CORE, dict(max_steps=300)


def _make(name, index):
    """One pooled passing script: a dict with its files and sizes."""
    spec = SPEC[name]
    for attempt in range(ATTEMPTS):
        rng = random.Random(f"{name}/{POOL_SEED}/{index}/{attempt}")
        if name == "deep-d7":
            d, rules, configs, opts = _deep_unit(rng)
        elif name == "hubcap-wide":
            d, rules, configs, opts = _hubcap_unit(rng, 8 + index % 4)
        else:
            d, rules, configs, opts = _bigdb_unit(rng)
        table = synth.derive_outlets(synth.parse_rules(rules), d)
        db = synth.load_db(configs)
        try:
            script = synth.Synthesizer(d, table, db, rng, **opts).run()
        except synth.Stuck:
            continue
        n = len(script.steps)
        if not spec["steps"][0] <= n <= spec["steps"][1]:
            continue
        mix = {k: script.count(k) for k in "CHRS"}
        if name == "deep-d7" and min(mix["H"], mix["R"], mix["S"]) < 3:
            continue
        if name == "reduce-bigdb" and mix["R"] < mix["H"]:
            continue
        text = script.text()
        failed = synth.failing_line(d, rules, configs, text)
        if failed is not None:
            raise RuntimeError(f"{name}/{index}: synthesized script fails "
                               f"at line {failed}")
        return dict(degree=d, rules=rules, configs=configs, script=text,
                    code=0, line=None, steps=n, mix=mix, _script=script)
    raise RuntimeError(f"{name}/{index}: no script within the window after "
                       f"{ATTEMPTS} attempts")


def _mutants(unit, rng, kinds):
    """Failing variants of a pooled script, one per kind, each breaking
    the step nearest a random point of the script."""
    script = unit["_script"]
    steps = script.steps
    out = []
    for kind in kinds:
        if kind == "H-":
            want = [i for i, s in enumerate(steps) if s.kind == "H"]
        elif kind == "R":
            want = [i for i, s in enumerate(steps)
                    if s.kind == "H" and (s.r_failed or not unit["configs"])]
        else:
            want = [i for i, s in enumerate(steps) if s.kind == "S"]
        if not want:
            continue
        point = rng.uniform(0.15, 0.95) * len(steps)
        i = min(want, key=lambda j: (abs(j - point), j))
        step = steps[i]
        line = i + 2
        if kind == "H-":
            t = rng.randrange(len(step.payload))
            payload = list(step.payload)
            x, y, v = payload[t]
            payload[t] = (x, y, v - 1)
            new = synth.format_step(step.level, "H", tuple(payload))
        elif kind == "R":
            new = synth.format_step(step.level, "R", ())
        else:
            k, eps, lev, m = step.payload
            # point the appeal at the nearest earlier line that is not
            # the pooled split it named
            others = [j + 2 for j in range(i) if j + 2 != m]
            if not others:
                continue
            new = synth.format_step(step.level, "S",
                                    (k, eps, lev, others[-1]))
        lines = unit["script"].splitlines()
        lines[line - 1] = new
        text = "\n".join(lines) + "\n"
        if synth.failing_line(unit["degree"], unit["rules"], unit["configs"],
                              text) != line:
            continue
        out.append(dict(degree=unit["degree"], rules=unit["rules"],
                        configs=unit["configs"], script=text, code=1,
                        line=line, steps=line - 1, mutant=kind))
    return out


def build_pools(log=None):
    """Every workload's pool, as plain data."""
    pools = {}
    for name in ("deep-d7", "hubcap-wide", "reduce-bigdb"):
        units = []
        for index in range(SPEC[name]["pool"]):
            units.append(_make(name, index))
            if log:
                u = units[-1]
                log(f"pool {name}[{index}]: d={u['degree']} "
                    f"steps={u['steps']} mix={u['mix']}")
        pools[name] = units
    rng = random.Random(f"fail-first/{POOL_SEED}")
    mutants = []
    for unit in pools["deep-d7"]:
        mutants += _mutants(unit, rng, ("H-", "R", "S"))
    for unit in pools["hubcap-wide"]:
        mutants += _mutants(unit, rng, ("H-",))
    if len(mutants) < SPEC["fail-first"]["pool"]:
        raise RuntimeError(f"only {len(mutants)} mutants")
    pools["fail-first"] = rng.sample(mutants, SPEC["fail-first"]["pool"])
    for units in pools.values():
        for u in units:
            u.pop("_script", None)
    return pools


def pool_digest(units):
    """Digest of a pool: the verifier's inputs and answers only."""
    return digest([[u[k] for k in DIGESTED] for u in units])


def digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
