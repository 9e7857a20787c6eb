"""Record the pools' digests and the default and held-out seeds' files
and verdicts in frozen.json.  Run from the root of a source tree, only
when the benchmark itself changes:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import run
    import workloads

    path = os.path.join(HERE, "frozen.json")
    with open(path, encoding="utf-8") as fh:
        frozen = json.load(fh)
    pools = run.load_pools(os.getcwd(), lambda m: print(m, file=sys.stderr))
    frozen["pools"] = {name: workloads.pool_digest(pools[name])
                       for name in workloads.NAMES}
    seeds = {}
    for seed in (frozen["default_seed"], frozen["held_out_seed"]):
        seeds[str(seed)] = {}
        for name in workloads.NAMES:
            picks, scripts = run.select(pools, name, seed)
            seeds[str(seed)][name] = dict(
                picks=picks,
                files=workloads.digest([[s[k] for k in
                                         ("rules", "configs", "script")]
                                        for s in scripts]),
                verdicts=[[s["code"], s["line"]] for s in scripts])
    frozen["seeds"] = seeds
    frozen["pool_sizes"] = {
        name: [dict(degree=u["degree"], steps=u["steps"],
                    **({"mix": u["mix"]} if "mix" in u else
                       {"mutant": u["mutant"], "line": u["line"]}))
               for u in pools[name]] for name in workloads.NAMES}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
