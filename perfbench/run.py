"""Benchmark of the cartwheel-discharge verifier: time to verdict end to
end, and per layer from a separate traced run.

    python3 perfbench/run.py --workload deep-d7 --seed 1 --seconds 22 --trace 0

Run it from the root of a source tree.  The first run in a tree
synthesizes every workload's pool of scripts (a few minutes) and caches
it under ``.bench_build/``; the pools must hash to the digests frozen in
``perfbench/frozen.json``, or the run fails, since a generator that
yields other bytes would measure other inputs against other answers.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN = os.path.join(HERE, "frozen.json")

# the percentile of per-script time to verdict each workload reports as
# its tail; a run makes enough passes to have ten calls beyond it
TAIL = {"deep-d7": 75, "hubcap-wide": 75, "reduce-bigdb": 75,
        "fail-first": 90}


# the benchmark's files the pools depend on
GENERATOR = ("synth.py", "workloads.py")


def source_key(root):
    """Hash of the engine's sources and the generator: the cache key of
    the pools."""
    h = hashlib.sha256()
    for base in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, files in sorted(os.walk(base)):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith(".py") and (base != HERE
                                          or f in GENERATOR):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, root).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def load_pools(root, log):
    import workloads

    cache = os.path.join(root, ".bench_build", "perfbench",
                         source_key(root), "pools.json")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            return json.load(fh)
    log("synthesizing workload pools (first run in this tree)")
    pools = workloads.build_pools(log)
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    tmp = cache + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, sort_keys=True)
    os.replace(tmp, cache)
    return pools


def select(pools, name, seed):
    """The scripts one run verifies: (pool indices, scripts).

    The seed orders the whole pool.  Pooled scripts differ in cost
    several times over: leaving even one out moved `verify_s` by about
    7 % (interquartile range over seeds), a third of its bound, so the
    seed, not the program, would move the figures.
    """
    pool = pools[name]
    rng = random.Random(f"{name}/run/{seed}")
    picks = rng.sample(range(len(pool)), len(pool))
    return picks, [pool[i] for i in picks]


def write_selection(root, name, seed, scripts):
    """Files of one run's selection and the manifest the measuring
    process reads."""
    out = os.path.join(root, ".bench_build", "perfbench", "runs",
                       f"{name}-{seed}")
    os.makedirs(out, exist_ok=True)
    entries = []
    for n, s in enumerate(scripts):
        paths = {}
        for kind in ("rules", "configs", "script"):
            p = os.path.join(out, f"{n:02d}.{kind}")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(s[kind])
            paths[kind + "_path"] = p
        entries.append(dict(paths, degree=s["degree"], code=s["code"],
                            line=s["line"], steps=s["steps"]))
    manifest = os.path.join(out, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(dict(root=root, tail_pct=TAIL[name], scripts=entries), fh)
    return manifest


def measure(manifest, mode, seconds):
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), manifest, mode,
           str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=seconds + 150)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"measuring process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TAIL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cartwheel_discharge",
                                       "cli.py")):
        raise SystemExit("no src/cartwheel_discharge here: run from the "
                         "root of a source tree")
    import workloads

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    with open(FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)
    pools = load_pools(root, log)
    for name in workloads.NAMES:
        got = workloads.pool_digest(pools[name])
        want = frozen["pools"].get(name)
        if got != want:
            raise SystemExit(f"pool {name} hashes to {got}, frozen {want}: "
                             f"the generator no longer yields the frozen "
                             f"inputs")

    picks, scripts = select(pools, args.workload, args.seed)
    files = workloads.digest([[s[k] for k in ("rules", "configs", "script")]
                              for s in scripts])
    answers = [[s["code"], s["line"]] for s in scripts]
    fixed = frozen["seeds"].get(str(args.seed), {}).get(args.workload)
    if fixed is not None and (fixed["files"] != files
                              or fixed["verdicts"] != answers):
        raise SystemExit(f"seed {args.seed} of {args.workload} no longer "
                         f"yields its frozen files and verdicts")

    manifest = write_selection(root, args.workload, args.seed, scripts)
    mode = "traced" if args.trace else "untraced"
    res = measure(manifest, mode, args.seconds)
    info = res["info"]
    log(f"{args.workload} seed {args.seed}: scripts {picks}, "
        + ", ".join(f"{k}={v}" for k, v in sorted(info.items())))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if absent:
        raise SystemExit(f"no value measured for {', '.join(absent)}")
    metrics = {m["name"]: res["metrics"][m["name"]] for m in wanted}
    odd = [k for k, v in metrics.items()
           if not isinstance(v["value"], (int, float))
           or not math.isfinite(v["value"])]
    if odd:
        raise SystemExit(f"not a finite number: {', '.join(sorted(odd))}")
    correct = res["failed"] == 0
    for k, v in sorted(metrics.items()):
        print(f"{k:38s} {v['value']!s:>24} {v['unit']}")
    print(json.dumps(dict(correct=correct, attempted=res["attempted"],
                          failed=res["failed"], metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(main())
