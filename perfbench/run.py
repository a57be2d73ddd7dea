"""The qpoly benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {qt-dense,sparse,check} --seed N
                             --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  Each
pass of the workload runs in a fresh single-threaded interpreter
(perfbench/worker.py), like one `qp` invocation per op.

--trace 0 measures the end-to-end metrics with tracing off: set-up only
interpreters, then passes until the next would end more than half a pass
after S seconds.
Op times are the per-op median over the passes, summed per op kind.
Reported times are seconds at a reference host speed (worker.HostSpeed,
timed_setup); wall seconds are printed beside them.

--trace 1 runs one untraced pass and two traced passes and prints the
per-layer metrics of the first traced pass; the exact counts of the two
traced passes must agree.  The first traced pass's spans are written to
.perfbench_out/spans-<workload>.bin.

Metric names and units come from BENCHMARK.json.  Human-readable lines
go first; the last line of standard output is the result object.  The
exit code is 2 when there is no program to measure, 1 when a pass
crashes, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 25
PASS_TIMEOUT = 170
OUT_DIR = ".perfbench_out"
KIND_METRIC = {"quasitree": "quasitree_s", "brute": "brute_s", "check": "check_s"}


class PassError(Exception):
    pass


def timed_setup(src, workload, seed):
    """(Set-up time of a fresh interpreter at reference speed, wall
    seconds).  The interpreter times a burst of the calibration loop right
    after its set-up, which gives the host speed it ran at."""
    report, _ = spawn(src, workload, seed, "--setup-only")
    return report["setup_s"] * report["scale"], report["setup_s"]


def spawn(src, workload, seed, *extra):
    """Run one worker; returns (its report, wall seconds of the process)."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    # -S: no site module; the worker needs the standard library and src only
    cmd = [sys.executable, "-S", WORKER, "--src", src, "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise PassError("a %s pass ran past %d s" % (workload, PASS_TIMEOUT)) from None
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1]), wall


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": model}


def failures(passes):
    attempted = sum(len(p["ops"]) for p in passes)
    bad = [(op["id"], op["outcome"], op["detail"])
           for p in passes for op in p["ops"] if op["outcome"] != "ok"]
    wrong = any(outcome == "wrong" for _, outcome, _ in bad)
    cli_ok = all(p["cli"]["ok"] for p in passes if "cli" in p)
    return attempted, bad, not wrong and cli_ok


def op_medians(passes, field="seconds"):
    """{op id: (kind, median of the field, sample count)}."""
    times = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(op["id"], (op["kind"], []))[1].append(op[field])
    return {oid: (kind, statistics.median(ts), len(ts))
            for oid, (kind, ts) in times.items()}


def end_to_end(passes, setups, field="seconds"):
    """The end-to-end metrics, and a note on the samples behind each.
    field picks times at reference speed ("seconds") or wall times
    ("wall"); setups are (reference, wall) pairs."""
    med = op_medians(passes, field)
    values = {"setup_s": statistics.median(s[field == "wall"] for s in setups),
              "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    for kind, name in KIND_METRIC.items():
        values[name] = sum(t for k, t, _ in med.values() if k == kind)
    notes = {"setup_s": "median of %d set-ups" % len(setups),
             "peak_rss_mb": "median of %d passes" % len(passes)}
    for kind, name in KIND_METRIC.items():
        n = sum(1 for k, _, _ in med.values() if k == kind)
        notes[name] = "sum over %d ops of the per-op median of %d passes" % (n, len(passes))
    return values, notes


def layer_value(name, trace, overhead):
    """One per-layer metric from a traced pass's report."""
    summary = trace["summary"]
    if name == "trace.overhead_frac":
        return overhead
    if name == "quasitrees.scan_yield":
        counts = trace["counts"].values()
        scanned = sum(c["subsets_scanned"] for c in counts)
        return sum(c["quasi_trees"] for c in counts) / scanned if scanned else 0.0
    if name == "invariants.tutte_minor.distinct_frac":
        calls = summary.get("invariants.tutte_minor", [0])[0]
        return trace["minor_keys_distinct"] / calls if calls else 0.0
    if name == "laurent.add.copied_terms":
        return trace["copied_terms"]
    span, field = name.rsplit(".", 1)
    calls, self_s, _ = summary.get(span, [0, 0.0, 0.0])
    if field == "calls":
        return calls
    if field == "self_s":
        return self_s
    raise ValueError("no rule for per-layer metric %r" % name)


def ops_wall(report):
    return sum(op["wall"] for op in report["ops"])


def print_failures(passes, attempted, bad):
    print("  op_fail_frac  %.4f  (%d of %d ops failed)"
          % (len(bad) / attempted, len(bad), attempted))
    for oid, outcome, detail in sorted(set(bad)):
        n = sum(1 for b in bad if b[0] == oid)
        print("    %s %s x%d: %s" % (oid, outcome, n, detail[:160]))
    for p in passes:
        if "cli" in p:
            c = p["cli"]
            print("  qp compute -p %s -m quasitree on %s: %s %s"
                  % (c["poly"], c["doc"], "bytes match" if c["ok"] else "MISMATCH",
                     c["detail"]))


def measure(src, args, spec):
    spawn(src, args.workload, args.seed, "--setup-only")  # fills bytecode caches
    setups = [timed_setup(src, args.workload, args.seed) for _ in range(SETUP_RUNS)]
    passes, pass_walls = [], []
    t0 = time.monotonic()
    while True:
        extra = ["--cli-check"] if not passes else []
        report, wall = spawn(src, args.workload, args.seed, *extra)
        passes.append(report)
        pass_walls.append(wall)
        # Stop when the next pass would end more than half a pass late:
        # the longest passes still get two samples of each op.
        if time.monotonic() - t0 + max(pass_walls) / 2 > args.seconds:
            break
    values, notes = end_to_end(passes, setups)
    walls, _ = end_to_end(passes, setups, "wall")
    attempted, bad, correct = failures(passes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("  metric        reference  wall")
    for name, unit in units.items():
        print("  %-13s %10.4f %10.4f %-3s %s"
              % (name, values[name], walls[name], unit, notes[name]))
    print_failures(passes, attempted, bad)
    wall_med = op_medians(passes, "wall")
    for oid, (kind, t, n) in sorted(op_medians(passes).items()):
        print("    %-32s %9.4f %9.4f s  (median of %d)" % (oid, t, wall_med[oid][1], n))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return correct, attempted, len(bad), metrics


def measure_traced(src, args, spec):
    os.makedirs(OUT_DIR, exist_ok=True)
    base, _ = spawn(src, args.workload, args.seed)
    # Both traced passes record spans; the first one's are kept on disk.
    out = os.path.join(OUT_DIR, "spans-%s.bin" % args.workload)
    traced = [spawn(src, args.workload, args.seed, "--trace", path)[0]
              for path in (out, os.devnull)]
    passes = [base] + traced
    attempted, bad, correct = failures(passes)
    t1, t2 = traced[0]["trace"], traced[1]["trace"]
    repeat = (t1["counts"] == t2["counts"]
              and t1["minor_keys_distinct"] == t2["minor_keys_distinct"])
    overhead = ops_wall(traced[0]) / ops_wall(base) - 1.0
    print("  exact counts per document (two traced passes %s):"
          % ("agree" if repeat else "DISAGREE"))
    for doc, counts in sorted(t1["counts"].items()):
        print("    %-8s %s" % (doc, " ".join("%s=%d" % kv for kv in counts.items())))
    print("  spans recorded: %d; share of the traced ops' wall time:" % t1["spans"])
    wall = ops_wall(traced[0])
    top = sorted(t1["summary"].items(), key=lambda kv: -kv[1][1])[:16]
    for name, (calls, self_s, total_s) in top:
        print("    %-40s self %5.1f%%  inclusive %5.1f%%  calls %d"
              % (name, 100 * self_s / wall, 100 * total_s / wall, calls))
    print_failures(passes, attempted, bad)
    metrics = {}
    for m in spec["per_layer"]:
        value = layer_value(m["name"], t1, overhead)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-42s %14.6f %s" % (m["name"], value, m["unit"]))
    return correct and repeat, attempted, len(bad), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "qpoly", "__init__.py")):
        print("perfbench: no program at %s/qpoly; run from the repository root"
              % src, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    facts = host_facts()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print("workload %s seed %d trace %d: %s" % (
        args.workload, args.seed, args.trace, why.get(args.workload, "")))
    print("host: Python %(python)s, nproc %(nproc)d, CPU %(cpu)s" % facts)
    try:
        run = measure_traced if args.trace else measure
        correct, attempted, failed, metrics = run(src, args, spec)
    except PassError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
