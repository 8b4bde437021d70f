"""One fresh process of a workload: set up tdr, then run closed-loop rounds.

    python3 tdrbench/worker.py INPUTS.json WORKLOAD --setup-only
    python3 tdrbench/worker.py INPUTS.json WORKLOAD --seconds S [--trace SPANS]

run.py starts it with a fixed PYTHONHASHSEED and src/ on PYTHONPATH.  The
set-up it times is the program's own: importing tdr, loading the inputs
into tdr objects, and one warm-up operation of each kind.  Every time it
reports is scaled to the reference speed (see reference.py); the unscaled
figures ride along under "raw".  It prints one JSON object as its last line.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import REF_NS, reference, speed_factors  # noqa: E402
from workloads import ingest  # noqa: E402


def setup(workload, data):
    """Times the program's set-up; the parts are scaled to reference speed."""
    before = _reference_times(5)
    t0 = time.perf_counter()
    import tdr
    if workload == "cli-session":
        import tdr.cli  # noqa: F401
    t1 = time.perf_counter()
    ops = ingest(tdr, workload, data)
    t2 = time.perf_counter()
    warmed = set()
    for op in ops:
        if op.kind not in warmed:
            warmed.add(op.kind)
            op.run()
    t3 = time.perf_counter()
    factor = REF_NS / statistics.median(before + _reference_times(5))
    parts = {"import_ms": (t1 - t0) * 1e3 * factor,
             "ingest_ms": (t2 - t1) * 1e3 * factor,
             "warmup_ms": (t3 - t2) * 1e3 * factor}
    return ops, parts


def _reference_times(k):
    out = []
    for _ in range(k):
        t0 = time.perf_counter_ns()
        reference()
        out.append(time.perf_counter_ns() - t0)
    return out


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds of every op until the time is up.

    Returns each op's latency in ns, the reference time measured just
    before it, and the number of failed operations.
    """
    lat, refs = [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter_ns
    while True:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(lat) + 1
            r0 = clock()
            reference()
            t0 = clock()
            refs.append(t0 - r0)
            try:
                out = op.run()
            except Exception as exc:  # a crash is a failed operation
                lat.append(clock() - t0)
                failed += 1
                sys.stderr.write(f"op {k} ({op.kind}) raised {exc!r}\n")
                continue
            lat.append(clock() - t0)
            try:
                ok = op.check(out)
            except Exception as exc:
                ok = False
                sys.stderr.write(f"check {k} ({op.kind}) raised {exc!r}\n")
            if not ok:
                failed += 1
                sys.stderr.write(f"op {k} ({op.kind}) gave a wrong answer\n")
        if time.perf_counter() >= deadline:
            return lat, refs, failed


def summarize(lat, n_ops):
    """Throughput and latency percentiles of latencies given in ns.

    lat holds whole rounds of n_ops operations.  Throughput is a round's
    operations over the sum of each operation's median time across the
    rounds, so that one round caught by a stall does not move it.
    """
    per_op = [statistics.median(lat[k::n_ops]) for k in range(n_ops)]
    s = sorted(lat)
    n = len(s)
    p90 = s[min(n - 1, -(-9 * n // 10) - 1)]
    return {"ops_per_s": n_ops / (sum(per_op) / 1e9),
            "op_p50_ms": statistics.median(s) / 1e6, "op_p90_ms": p90 / 1e6}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs")
    ap.add_argument("workload")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        data = json.load(fh)
    ops, parts = setup(args.workload, data)
    result = {"setup": parts}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        gc.collect()
        lat, refs, failed = run_rounds(ops, args.seconds, tracer)
        scaled = [t * f for t, f in zip(lat, speed_factors(refs))]
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics(len(lat), sum(scaled) / sum(lat))
            tracer.write_spans(args.trace)
        result.update(summarize(scaled, len(ops)))
        result["raw"] = summarize(lat, len(ops))
        result["attempted"] = len(lat)
        result["failed"] = failed
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
