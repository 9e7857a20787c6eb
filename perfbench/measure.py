"""Measuring process: verifies one prepared selection of scripts.

Run by ``run.py`` in a fresh interpreter:

    python3 perfbench/measure.py MANIFEST untraced|traced SECONDS

This process imports the engine and never runs it.  Every verify call
and every set-up measurement runs in a child forked from it, so each
starts as a fresh interpreter that has just imported the engine, as a
user's ``verify`` does: nothing one call leaves in a process-global
cache reaches the next.

Untraced mode times set-up and whole passes over the selection through
``cli.main`` with the CLI's defaults, in CPU seconds of the verifying
process, its threads and children: on a shared host other tenants'
load stretches wall time by up to twice for minutes, CPU time much
less.  Traced mode times a few untraced passes, then one traced pass
whose counts are exact, then the public interval kernels in isolation
on arguments captured from that pass.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import re
import resource
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
FAILED_AT = re.compile(r"^verification failed: line (\d+):", re.M)


def _engine(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import cartwheel_discharge
    from cartwheel_discharge import cli  # noqa: F401  imported, not run
    where = os.path.dirname(os.path.abspath(cartwheel_discharge.__file__))
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"engine imported from {where}, not from {src}")


def in_child(fn, *args):
    """fn(*args), computed in a forked child of this process.  Forking
    is safe here because this process starts no thread; the engine's
    thread pools run in the children."""
    if threading.active_count() != 1:
        raise RuntimeError("the measuring process must not start threads")
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                pickle.dump(fn(*args), fh)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"measuring child failed with status {status}")
    return pickle.loads(data)


def verify_once(script):
    """(seconds, exit code, failing line or None) of one verify call."""
    from cartwheel_discharge import cli
    argv = ["verify", "-d", str(script["degree"]), "-r", script["rules_path"],
            "-c", script["configs_path"], "-p", script["script_path"]]
    out = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:     # a traceback is a wrong verdict, not a crash
        code = f"raised {type(e).__name__}"
    t1 = time.perf_counter()
    m = FAILED_AT.search(err.getvalue())
    return t1 - t0, code, int(m.group(1)) if m else None


def cpu_s():
    """CPU seconds of this process, all its threads, and the children
    it has waited for."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + r.ru_utime + r.ru_stime


def setup_once(script):
    """CPU seconds of the public set-up calls a verify run makes before
    its first proof step."""
    from cartwheel_discharge import (derive_outlets, load_database,
                                     parse_presentation, parse_rules)
    t0 = cpu_s()
    with open(script["rules_path"], encoding="utf-8") as fh:
        derive_outlets(parse_rules(fh.read()), script["degree"])
    with open(script["configs_path"], encoding="utf-8") as fh:
        load_database(fh.read())
    with open(script["script_path"], encoding="utf-8") as fh:
        parse_presentation(fh.read())
    return cpu_s() - t0


def wrong(script, code, line):
    """Whether a verdict differs from the script's known answer; says
    so on stderr."""
    if code == script["code"] and line == script["line"]:
        return False
    print(f"wrong verdict on {script['script_path']}: exit {code} line "
          f"{line}, expected exit {script['code']} line {script['line']}",
          file=sys.stderr)
    return True


def verify_child(script):
    """A verify call, its CPU seconds and the peak memory of the
    process that made it."""
    t0 = cpu_s()
    dt, code, line = verify_once(script)
    return dt, code, line, cpu_s() - t0, peak_rss_mb()


def verify_pass(scripts, peaks):
    """One pass over the selection, each call in its own child; appends
    peak memory.  Returns (wall seconds, wrong verdicts, CPU seconds per
    script)."""
    wall = 0.0
    cpu = []
    failed = 0
    for s in scripts:
        dt, code, line, used, rss = in_child(verify_child, s)
        wall += dt
        cpu.append(used)
        peaks.append(rss)
        failed += wrong(s, code, line)
    return wall, failed, cpu


def peak_rss_mb():
    """Peak resident memory of this process: the kernel's high-water
    mark where it offers one, else ru_maxrss."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def beyond(n, q):
    """Scripts of n beyond the q-th percentile (nearest rank)."""
    return n - max(1, -(-q * n // 100))


def verdict_times(rows, wanted):
    """(median, percentile, tail, calls beyond the tail) of per-script
    time to verdict, each script's time being the median of its calls,
    one row of calls per pass.  The tail is the highest of the
    percentiles up to `wanted` with at least ten calls beyond it.

    Percentiles over single calls would sit on the edge between two
    scripts' calls whenever they split the pool evenly, and read the
    slowest call of the cheaper script: noise, not the program."""
    per = sorted(statistics.median(col) for col in zip(*rows))
    n = len(per)
    for q in (99, 95, 90, 75, 50):
        calls = beyond(n, q) * len(rows)
        if q <= wanted and calls >= 10:
            return statistics.median(per), q, per[n - beyond(n, q) - 1], calls
    return statistics.median(per), 100, per[-1], 0


def untraced(scripts, seconds, wanted_tail):
    steps = sum(s["steps"] for s in scripts)
    rows = []
    peaks = []
    _, failed, _ = verify_pass(scripts, peaks)
    attempted = len(scripts)
    passes = []
    walls = []
    setups = []
    # enough passes that ten calls lie beyond the wanted percentile
    least = max(3, -(-10 // max(1, beyond(len(scripts), wanted_tail))))
    deadline = time.perf_counter() + seconds
    while True:
        setups.append(sum(in_child(setup_once, s) for s in scripts))
        wall, bad, cpu = verify_pass(scripts, peaks)
        walls.append(wall)
        passes.append(sum(cpu))
        rows.append(cpu)
        attempted += len(scripts)
        failed += bad
        if time.perf_counter() >= deadline and len(passes) >= least:
            break
    verify_s = statistics.median(passes)
    setup_s = statistics.median(setups)
    p50_s, q, tail_s, tail_calls = verdict_times(rows, wanted_tail)
    metrics = {
        "verify_s": (verify_s, "s"),
        "setup_s": (setup_s, "s"),
        "steps_per_s": (steps / max(verify_s - setup_s, 1e-9), "1/s"),
        "verdict_p50_s": (p50_s, "s"),
        "verdict_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(peaks), "MB"),
    }
    info = dict(passes=len(passes), wall_verify_s=statistics.median(walls),
                tail_pct=q, tail_calls=tail_calls,
                scripts=len(scripts), steps=steps, cpu_count=os.cpu_count(),
                error_rate=failed / attempted)
    return attempted, failed, metrics, info


def kernel_rate(samples, budget=0.5):
    """Calls per second of the public enforced / permitted / wedge
    functions on (axle, outlet, spoke) arguments captured at check_bound,
    kept when the axle passes validate_axle.  Returns (rate, arguments
    kept, arguments dropped), with the rate 0 and a reason in place of
    the arguments kept when nothing can be timed."""
    try:
        from cartwheel_discharge import (axle_wedge_outlet, enforced,
                                         permitted, validate_axle)
    except ImportError as e:
        return 0.0, f"public kernels are gone ({e})", 0
    items = [(a, out, x) for a, out, x in samples if not validate_axle(a)]
    illegal = len(samples) - len(items)
    if not items:
        return 0.0, "no check_bound arguments were captured", illegal
    calls = 0
    t0 = time.perf_counter()
    while True:
        for a, out, x in items:
            enforced(a, out, x)
            permitted(a, out, x)
            axle_wedge_outlet(a, out, x)
        calls += 3 * len(items)
        dt = time.perf_counter() - t0
        if dt >= budget:
            return calls / dt, len(items), illegal


def traced_child(script):
    """A verify call under the tracer, and the tracer's summary."""
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        dt, code, line = verify_once(script)
    return dt, code, line, tracer.summary()


def traced(scripts, seconds):
    plain = []
    _, failed, _ = verify_pass(scripts, [])
    attempted = len(scripts)
    deadline = time.perf_counter() + seconds * 0.5
    while True:
        dt, bad, _ = verify_pass(scripts, [])
        plain.append(dt)
        attempted += len(scripts)
        failed += bad
        if time.perf_counter() >= deadline and len(plain) >= 3:
            break
    traced_s = 0.0
    summaries = []
    for s in scripts:
        dt, code, line, summary = in_child(traced_child, s)
        traced_s += dt
        failed += wrong(s, code, line)
        summaries.append(summary)
    attempted += len(scripts)
    metrics, why = layer_metrics(summaries)
    samples = [x for sm in summaries for x in sm["samples"]]
    rate, kept, illegal = kernel_rate(samples)
    metrics["kernels.calls_per_s"] = (rate, "1/s")
    if isinstance(kept, str):
        why["kernels.calls_per_s"] = kept
        kept = 0
    plain_s = statistics.median(plain)
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    info = dict(untraced_pass_s=plain_s, traced_pass_s=traced_s,
                kernel_items=kept, kernel_illegal=illegal, missing=why,
                cpu_count=os.cpu_count())
    return attempted, failed, metrics, info


def layer_metrics(summaries):
    """Per-layer metrics of traced verify calls, one ``Tracer.summary``
    each: (name -> (value, unit), name -> why its value is 0 because
    its layer's function is gone)."""
    missing = {}
    for sm in summaries:
        missing.update(sm["missing"])

    def t(name, kind=1):
        # kind 0 is total duration, 1 is self time
        return sum(sm["times"].get(name, (0.0, 0.0, 0))[kind]
                   for sm in summaries)

    def c(name):
        return sum(sm["counts"].get(name, 0) for sm in summaries)

    def notes(key):
        return [x for sm in summaries for x in sm["notes"].get(key, ())]

    def ratio(a, b):
        return a / b if b else 0.0

    def reuse(field):
        # mean over verify calls of 1 - distinct / skeleton calls
        runs = notes("skeleton_runs")
        return ratio(sum(1 - r[field] / r[0] for r in runs), len(runs))

    rows = (
        ("rules.derive_s", "s", "rules.derive",
         lambda: t("rules.derive", 0)),
        ("rules.outlets", "count", "rules.derive",
         lambda: sum(notes("outlets"))),
        ("configurations.load_s", "s", "configurations.build",
         lambda: t("configurations.parse", 0) + t("configurations.build", 0)),
        ("configurations.configs", "count", "configurations.build",
         lambda: c("configurations.build")),
        ("presentation.parse_s", "s", "presentation.parse",
         lambda: t("presentation.parse", 0)),
        ("presentation.walk_self_s", "s", "presentation.run",
         lambda: t("presentation.run")),
        ("presentation.steps", "count", "presentation.run",
         lambda: sum(notes("steps"))),
        ("presentation.pool_peak", "count", "presentation.run",
         lambda: max(notes("pool_peak"), default=0)),
        ("axles.condition_wedges", "count", "axles.condition_wedge",
         lambda: c("axles.condition_wedge")),
        ("hubcaps.hubcap_calls", "count", "hubcaps.hubcap",
         lambda: c("hubcaps.hubcap")),
        ("hubcaps.hubcap_self_s", "s", "hubcaps.hubcap",
         lambda: t("hubcaps.hubcap")),
        ("hubcaps.bound_nodes", "count", "hubcaps.bound",
         lambda: c("hubcaps.bound")),
        ("hubcaps.bound_self_s", "s", "hubcaps.bound",
         lambda: t("hubcaps.bound")),
        ("hubcaps.bound_nodes_per_s", "1/s", "hubcaps.bound",
         lambda: ratio(c("hubcaps.bound"), t("hubcaps.bound"))),
        ("hubcaps.escalations", "count", "presentation.reducer",
         lambda: c("presentation.reducer")),
        ("kernels.enforced_calls", "count", "kernels.enforced",
         lambda: c("kernels.enforced")),
        ("kernels.permitted_calls", "count", "kernels.permitted",
         lambda: c("kernels.permitted")),
        ("kernels.wedge_calls", "count", "kernels.wedge",
         lambda: c("kernels.wedge")),
        ("reducibility.reducible_calls", "count", "reducibility.reducible",
         lambda: len(notes("disposition"))),
        ("reducibility.escalated_calls", "count", "reducibility.reducible",
         lambda: len(notes("escalated"))),
        ("reducibility.tree_nodes", "count", "reducibility.semi",
         lambda: c("reducibility.semi")),
        ("reducibility.tree_nodes_per_s", "1/s", "reducibility.semi",
         lambda: ratio(c("reducibility.semi"),
                       t("reducibility.reducible", 0))),
        ("reducibility.skeleton_s", "s", "reducibility.skeleton",
         lambda: t("reducibility.skeleton", 0)),
        ("reducibility.skeleton_calls", "count", "reducibility.skeleton",
         lambda: c("reducibility.skeleton")),
        ("reducibility.skeleton_key_reuse", "ratio", "reducibility.skeleton",
         lambda: reuse(1)),
        ("reducibility.skeleton_shape_reuse", "ratio",
         "reducibility.skeleton", lambda: reuse(2)),
        ("reducibility.placement_self_s", "s", "reducibility.semi",
         lambda: t("reducibility.semi")),
        ("reducibility.iso_checks", "count", "reducibility.iso",
         lambda: c("reducibility.iso")),
        ("reducibility.hit_ratio", "ratio", "reducibility.semi",
         lambda: ratio(len(notes("placements")), c("reducibility.semi"))),
    )
    metrics = {}
    why = {}
    for name, unit, probe, value in rows:
        if probe in missing:
            metrics[name] = (0, unit)
            why[name] = missing[probe]
        else:
            metrics[name] = (value(), unit)
    return metrics, why


def main(argv):
    manifest_path, mode, seconds = argv[0], argv[1], float(argv[2])
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    _engine(manifest["root"])
    scripts = manifest["scripts"]
    if mode == "traced":
        attempted, failed, metrics, info = traced(scripts, seconds)
    else:
        attempted, failed, metrics, info = untraced(
            scripts, seconds, manifest["tail_pct"])
    print(json.dumps(dict(attempted=attempted, failed=failed, info=info,
                          metrics={k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()})))


if __name__ == "__main__":
    main(sys.argv[1:])
