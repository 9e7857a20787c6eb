"""Self-checks of the benchmark.  Run from the root of the source tree:

    python3 -m pytest -q perfbench/tests

The first run synthesizes the workload pools (minutes); later runs read
them from ``.bench_build/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
HERE = os.path.join(ROOT, "perfbench")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pools():
    return run.load_pools(ROOT, lambda m: None)


def test_same_seed_same_bytes():
    for name, index in (("deep-d7", 0), ("hubcap-wide", 1)):
        a = workloads._make(name, index)
        b = workloads._make(name, index)
        for key in ("rules", "configs", "script"):
            assert a[key] == b[key], (name, key)


def test_pools_match_the_frozen_digests(pools):
    with open(os.path.join(HERE, "frozen.json"), encoding="utf-8") as fh:
        frozen = json.load(fh)
    for name in workloads.NAMES:
        assert workloads.pool_digest(pools[name]) == frozen["pools"][name], \
            name
    for seed, by_name in frozen["seeds"].items():
        for name, fixed in by_name.items():
            picks, scripts = run.select(pools, name, int(seed))
            assert picks == fixed["picks"]
            assert [[s["code"], s["line"]] for s in scripts] == \
                fixed["verdicts"]


def test_pools_do_not_depend_on_engine_call_counts(pools, monkeypatch):
    # an engine that calls its kernels twice as often, and a tracer that
    # no longer knows the kernel module, leave the pools as they are
    from cartwheel_discharge import _kernels

    def twice(f):
        def g(*args):
            f(*args)
            return f(*args)
        return g
    for attr in ("outlet_enforced", "outlet_permitted", "outlet_wedge"):
        monkeypatch.setattr(_kernels, attr, twice(getattr(_kernels, attr)))
    monkeypatch.setattr(tracing, "PROBES", tuple(
        p for p in tracing.PROBES if p[1] != "_kernels"))
    for name in ("deep-d7", "reduce-bigdb"):
        unit = workloads._make(name, 0)
        assert workloads.pool_digest([unit]) == \
            workloads.pool_digest(pools[name][:1]), name


def _entries(scripts, tmp_path, tag):
    out = []
    for n, s in enumerate(scripts):
        entry = dict(degree=s["degree"], code=s["code"], line=s["line"])
        for kind in ("rules", "configs", "script"):
            p = tmp_path / f"{tag}-{n}.{kind}"
            p.write_text(s[kind], encoding="utf-8")
            entry[kind + "_path"] = str(p)
        out.append(entry)
    return out


def test_every_script_gets_its_verdict(pools, tmp_path):
    for name in workloads.NAMES:
        for s, entry in zip(pools[name], _entries(pools[name], tmp_path,
                                                   name)):
            _, code, line = measure.verify_once(entry)
            assert (code, line) == (s["code"], s["line"]), name
        if name == "fail-first":
            assert all(s["code"] == 1 for s in pools[name])
        else:
            assert all(s["code"] == 0 for s in pools[name])


def _traced(entries):
    """Layer metrics of one traced pass, each call in its own child."""
    summaries = []
    for e in entries:
        _, code, line, summary = measure.in_child(measure.traced_child, e)
        assert (code, line) == (e["code"], e["line"])
        summaries.append(summary)
    return summaries, measure.layer_metrics(summaries)[0]


def test_traced_counts_repeat_exactly(pools, tmp_path):
    scripts = pools["deep-d7"][:2] + pools["fail-first"][:4]
    entries = _entries(scripts, tmp_path, "t")
    seen = []
    for _ in range(2):
        _, m = _traced(entries)
        seen.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    assert seen[0] == seen[1]
    assert seen[0]["hubcaps.bound_nodes"] > 0
    assert seen[0]["reducibility.tree_nodes"] > 0


def test_skeleton_reuse_is_per_verify_call(pools, tmp_path):
    # the same script twice reuses every key the second time, but reuse
    # is taken within each call, so it matches one call's
    entry = _entries(pools["deep-d7"][:1], tmp_path, "r")[0]
    tr = tracing.Tracer()
    with tr:
        for _ in range(2):
            assert measure.verify_once(entry)[1] == 0
    once, _ = measure.layer_metrics([tr.summary()])[0][
        "reducibility.skeleton_key_reuse"]
    _, m = _traced([entry])
    assert 0 < once < 1
    assert once == m["reducibility.skeleton_key_reuse"][0]


def test_pool_peak_counts_failing_runs_up_to_their_line(pools, tmp_path):
    _, m = _traced(_entries(pools["fail-first"][:2], tmp_path, "f"))
    assert m["presentation.pool_peak"][0] > 0
    _, m = _traced(_entries(pools["deep-d7"][:1], tmp_path, "p"))
    assert m["presentation.pool_peak"][0] > 0


def test_kernel_rate_needs_only_the_public_kernels(pools, tmp_path,
                                                   monkeypatch):
    # the kernel module's own functions untraced, as when it is gone:
    # arguments come from check_bound, timing from the public functions
    monkeypatch.setattr(tracing, "PROBES", tuple(
        p for p in tracing.PROBES if p[1] != "_kernels"))
    entry = _entries(pools["hubcap-wide"][:1], tmp_path, "k")[0]
    tr = tracing.Tracer()
    with tr:
        assert measure.verify_once(entry)[1] == 0
    assert "kernels.enforced" not in tr.missing
    assert tr.samples
    rate, kept, illegal = measure.kernel_rate(tr.samples, budget=0.05)
    assert rate > 0 and kept == len(tr.samples) and illegal == 0


def test_mutant_kinds_are_all_present(pools):
    kinds = {s["mutant"] for s in pools["fail-first"]}
    assert kinds == {"H-", "R", "S"}


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric(trace, pools):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fail-first",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    for k, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), k


def test_a_missing_layer_is_reported_and_the_rest_still_counts(monkeypatch):
    from cartwheel_discharge import _kernels
    monkeypatch.delattr(_kernels, "outlet_wedge")
    tr = tracing.Tracer()
    with tr:
        pass
    assert "kernels.wedge" in tr.missing
    assert "kernels.enforced" not in tr.missing
    m, why = measure.layer_metrics([tr.summary()])
    assert m["kernels.wedge_calls"][0] == 0
    assert "outlet_wedge" in why["kernels.wedge_calls"]
    assert m["kernels.enforced_calls"][0] == 0


def test_self_time_subtracts_children_once():
    spans = [(1, "a", 0.0, 10.0, 0, 1),
             (2, "b", 1.0, 4.0, 1, 1),
             (3, "b", 3.0, 6.0, 1, 2)]      # overlaps its sibling
    times = tracing.span_times(spans)
    assert times["a"] == (10.0, 5.0, 1)
    assert times["b"] == (6.0, 6.0, 2)


def test_verdict_times_are_over_per_script_medians():
    # four scripts; a percentile that splits them evenly reads a script's
    # median (2.0), not the slowest call of the cheaper ones (2.9)
    rows = [[1.0, 2.0, 3.0, 9.0]] * 4 + [[1.5, 2.9, 3.1, 9.9]]
    # five passes: ten calls lie beyond the median, five beyond p75
    assert measure.verdict_times(rows, 75) == (2.5, 50, 2.0, 10)
    assert measure.verdict_times(rows * 2, 75) == (2.5, 75, 3.0, 10)


def test_hubcap_rules_never_overload_a_pinned_wheel():
    import random
    for d in (8, 11):
        text = synth.hubcap_rules(random.Random(d), d, 14)
        rules = [list(map(int, line.split()[1:]))
                 for line in text.splitlines()]
        assert synth.max_wheel_charge(synth.spoke_charge(rules, d), d) \
            <= 10 * (d - 6)
