"""tdr benchmark: one workload, timed end to end, or traced per layer.

    python3 tdrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tdr checkout.  The inputs are generated here, by
the benchmark's own code, before any clock starts.  Each workload then
runs in fresh single-threaded worker processes with a fixed hash seed:
SETUP_SAMPLES processes that only set up, and one that sets up and runs
whole closed-loop rounds for S seconds; setup_s is the median of all
their set-ups.  Times are scaled to a reference
speed measured beside every operation, which cancels the drift of a
shared machine (see reference.py and README.md).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the traced run's end-to-end figures go to stderr.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import generate  # noqa: E402
from workloads import ISOLATION, REACHES, WORKLOADS  # noqa: E402

# Hash randomisation moves the sympy import by up to ~0.2 s; fix it.
HASH_SEED = "0"
SETUP_SAMPLES = 10
# worst case for one run must stay under 180 s in all
CHILD_TIMEOUT = 150


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=left)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tdr", "__init__.py")):
        sys.stderr.write("error: no tdr sources at src/tdr; run from a tdr checkout\n")
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT
    # bytecode is written once here, so no timed import compiles source
    compileall.compile_dir(os.path.join(ROOT, "src", "tdr"), quiet=1)
    out = os.path.join(HERE, "out")
    work = os.path.join(out, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        data = generate(args.workload, args.seed, work)
        inputs = os.path.join(work, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        base = [inputs, args.workload]
        setups = [_worker(base + ["--setup-only"], deadline)["setup"]
                  for _ in range(SETUP_SAMPLES)]
        run = base + ["--seconds", str(args.seconds)]
        trace_file = None
        if args.trace:
            trace_file = os.path.join(out, f"trace-{args.workload}-{args.seed}.tsv")
            run += ["--trace", trace_file]
        res = _worker(run, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write("unscaled end-to-end: " + json.dumps(res["raw"]) + "\n")
    setups.append(res["setup"])
    setup_s = statistics.median(sum(s.values()) for s in setups) / 1e3
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    if args.trace:
        layers = res["layers"]
        for part in ("import_ms", "ingest_ms", "warmup_ms"):
            layers[f"setup.{part}"] = (statistics.median(s[part] for s in setups), "ms")
        metrics = layers
        reached = [n for n in ISOLATION.get(args.workload, ()) if layers[n][0]]
        missed = [n for n in REACHES[args.workload] if not layers[n][0]]
        sys.stderr.write("layer isolation: " + (
            "ok\n" if not reached else "reached " + ", ".join(reached) + "\n"))
        sys.stderr.write("layers reached: " + (
            "ok\n" if not missed else "missed " + ", ".join(missed) + "\n"))
        sys.stderr.write("traced end-to-end: " + json.dumps(
            {k: round(v, 6) for k, (v, _) in e2e.items()}) + "\n")
        sys.stderr.write(f"spans written to {os.path.relpath(trace_file, ROOT)}\n")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
