"""One pass of a workload, in a fresh interpreter started by run.py.

The pass builds the workload's documents, times every op once, then
verifies every output outside the timed region and prints one JSON report
as its last line of standard output.  Op times are reported both as wall
seconds and as seconds at a reference host speed (see HostSpeed).  With
--trace the tracer wraps the program's public functions before the
documents are built, and times are wall seconds only.

    python3 perfbench/worker.py --src SRC --workload W --seed N
        --spawned-at T [--setup-only] [--cli-check] [--trace OUT]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from time import perf_counter

import workloads

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
CLI_POLY = "br"


# Host speed.  Other tenants of the machine change how fast this process
# runs by 20-40% over tens of seconds, far more than the changes the
# benchmark has to resolve.  So a fixed pure-Python loop is timed every
# CAL_PERIOD seconds while the ops run, and each op's wall time is scaled
# to the speed at which that loop takes CAL_REF seconds.
CAL_ITERS = 5000
CAL_PERIOD = 0.05
CAL_REF = 0.00075


def calibration_loop():
    table = {}
    s = 0
    for i in range(CAL_ITERS):
        s += i & 7
        table[i & 255] = s
    return s


def calibration_sample():
    t0 = perf_counter()
    calibration_loop()
    return t0, perf_counter() - t0


def reference_scale(samples=20):
    """CAL_REF over the mean time of a burst of calibration samples, taken
    after as many unsampled runs so that the interpreter has specialised
    the loop."""
    for _ in range(samples):
        calibration_loop()
    return CAL_REF * samples / sum(calibration_sample()[1] for _ in range(samples))


class HostSpeed:
    """Times calibration_loop from a SIGALRM handler every CAL_PERIOD
    seconds while active; ``scale`` turns an interval of wall time into
    seconds at the reference speed."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(calibration_sample())

    def __enter__(self):
        for _ in range(20):  # let the interpreter specialise the loop first
            calibration_loop()
        self.samples.append(calibration_sample())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD, CAL_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(calibration_sample())

    def scale(self, t0, t1):
        """(wall seconds of [t0, t1) less the sampling inside it, the same
        at reference speed).  The speed is the mean sample time within a
        period of the interval."""
        inside = sum(d for t, d in self.samples if t0 <= t < t1)
        near = [d for t, d in self.samples
                if t0 - CAL_PERIOD <= t < t1 + CAL_PERIOD]
        if not near:
            near = [d for _, d in self.samples]
        wall = t1 - t0 - inside
        return wall, wall * CAL_REF * len(near) / sum(near)


@dataclass
class Record:
    op: workloads.Op
    start: float
    end: float
    value: object = None
    error: str | None = None
    outcome: str = "ok"      # "ok", "wrong" or "raised"
    detail: str = ""
    wall: float = 0.0        # wall seconds
    seconds: float = 0.0     # seconds at reference speed


def timed_call(fn, *args):
    """(start, end, value, error text); an exception ends only this op."""
    t0 = perf_counter()
    try:
        value = fn(*args)
        error = None
    except Exception as exc:  # a raising op is counted as failed; the pass goes on
        value = None
        error = "%s: %s" % (type(exc).__name__, exc)
    return t0, perf_counter(), value, error


def run_ops(qpoly, docs, ops, tracer=None):
    """Time each op once.  A garbage collection before each op gives every
    op the same collector state whatever ran before it.  Functions are
    looked up on the package at call time, so a tracer installed on it
    sees the calls."""
    records = []
    for i, op in enumerate(ops):
        _, emb, order = docs[op.doc]
        if tracer is not None:
            tracer.current_op = i
        gc.collect()
        if op.kind == "check":
            records.append(Record(op, *timed_call(qpoly.run_checks, emb, order)))
        else:
            records.append(Record(op, *timed_call(qpoly.compute_polynomial,
                                                  emb, order, op.poly, op.kind)))
    if tracer is not None:
        tracer.current_op = -1
    for rec in records:
        rec.wall = rec.seconds = rec.end - rec.start
    return records


def run_ops_at_reference_speed(qpoly, docs, ops):
    with HostSpeed() as speed:
        records = run_ops(qpoly, docs, ops)
    for rec in records:
        rec.wall, rec.seconds = speed.scale(rec.start, rec.end)
    return records


def doc_key(text, poly):
    """Key of a polynomial in expected.json.  The polynomials do not depend
    on the edge order, so the order line is left out of the key."""
    body = "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith("order:"))
    return "%s:%s" % (hashlib.sha256(body.encode()).hexdigest()[:32], poly)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class MissingDigest(Exception):
    pass


def recorded_digests(docs, ops):
    """{(doc, poly): recorded brute digest} for every compute op.  Raises
    MissingDigest when expected.json lacks one."""
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    want = {}
    for op in ops:
        if op.kind == "check":
            continue
        key = doc_key(docs[op.doc][0], op.poly)
        if key not in table:
            raise MissingDigest(
                "%s has no digest of %s on %s; regenerate it with "
                "python3 perfbench/expected.py" % (EXPECTED, op.poly, op.doc))
        want[op.doc, op.poly] = table[key]
    return want


def verify(records, want):
    """Set each record's outcome.  A compute op's canonical text must have
    the recorded brute digest of its document (want, from
    recorded_digests).  A check op must raise nothing and report no
    FAIL."""
    for rec in records:
        op = rec.op
        if rec.error is not None:
            rec.outcome, rec.detail = "raised", rec.error
            continue
        if op.kind == "check":
            fails = [name for name, status, _ in rec.value if status == "FAIL"]
            if fails:
                rec.outcome, rec.detail = "wrong", "FAIL " + ", ".join(fails)
            continue
        if digest(rec.value.canonical_text()) != want[op.doc, op.poly]:
            rec.outcome, rec.detail = "wrong", "differs from the recorded digest"


def cli_check(qpoly, docs, doc):
    """`python -m qpoly.cli compute` must print the in-process bytes."""
    text, emb, order = docs[doc]
    want = (qpoly.compute_polynomial(emb, order, CLI_POLY, "quasitree")
            .canonical_text() + "\n").encode()
    proc = subprocess.run(
        [sys.executable, "-m", "qpoly.cli", "compute", "-i", "-",
         "-p", CLI_POLY, "-m", "quasitree"],
        input=text.encode(), capture_output=True, timeout=120)
    ok = proc.returncode == 0 and proc.stdout == want
    detail = "" if ok else "exit %d, %d bytes, stderr %r" % (
        proc.returncode, len(proc.stdout), proc.stderr[-200:])
    return {"ok": ok, "doc": doc, "poly": CLI_POLY, "detail": detail}


def trace_report(tracer, ops):
    counts = {}
    for op_index, per_op in tracer.op_counts().items():
        doc = ops[op_index].doc if op_index >= 0 else "(setup)"
        into = counts.setdefault(doc, dict.fromkeys(per_op, 0))
        for key, value in per_op.items():
            into[key] += value
    return {"summary": tracer.summary(), "counts": counts,
            "copied_terms": tracer.copied_terms,
            "minor_keys_distinct": tracer.minor_keys_distinct(),
            "spans": len(tracer.start)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cli-check", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_OUT")
    args = ap.parse_args(argv)

    import qpoly
    if not os.path.abspath(qpoly.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit("qpoly was imported from %s, not from %s" % (qpoly.__file__, args.src))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    docs, ops = workloads.build(qpoly, args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scale": reference_scale()}))
        return 0
    try:
        want = recorded_digests(docs, ops)
    except MissingDigest as exc:
        sys.exit("perfbench: %s" % exc)

    if tracer is None:
        records = run_ops_at_reference_speed(qpoly, docs, ops)
    else:
        records = run_ops(qpoly, docs, ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = trace_report(tracer, ops)
        tracer.write(args.trace)
    verify(records, want)
    report["ops"] = [{"id": r.op.id, "kind": r.op.kind, "doc": r.op.doc,
                      "seconds": r.seconds, "wall": r.wall,
                      "outcome": r.outcome, "detail": r.detail}
                     for r in records]
    if args.cli_check:
        report["cli"] = cli_check(qpoly, docs, workloads.WORKLOADS[args.workload][2])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
